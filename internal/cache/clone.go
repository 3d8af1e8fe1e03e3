package cache

import "secddr/internal/config"

// Clone returns a deep copy of the cache: identical geometry, content,
// recency state, and statistics, sharing no storage with the original.
// The copy is written into into's arrays when into has the same geometry
// — whatever into held is overwritten, and into is returned — so a
// caller that recycles finished caches pays no allocation per copy. A nil
// into, or one of another geometry, is ignored and the copy allocates.
func (c *Cache) Clone(into *Cache) *Cache {
	if into == nil || into.geom != c.geom {
		into = new(Cache)
	}
	tags := append(into.tags[:0], c.tags...)
	lastUse := append(into.lastUse[:0], c.lastUse...)
	dirty := append(into.dirty[:0], c.dirty...)
	*into = *c
	into.tags, into.lastUse, into.dirty = tags, lastUse, dirty
	return into
}

// Reset returns an empty cache of geometry geom, exactly as New(geom)
// builds it, reusing c's arrays when c has that geometry (c is then
// returned, its content and statistics cleared). A nil c, or one of
// another geometry, is ignored and Reset allocates through New.
func (c *Cache) Reset(geom config.CacheGeom) (*Cache, error) {
	if c == nil || c.geom != geom {
		return New(geom)
	}
	clear(c.tags)
	clear(c.lastUse)
	clear(c.dirty)
	*c = Cache{
		geom:     c.geom,
		tags:     c.tags,
		lastUse:  c.lastUse,
		dirty:    c.dirty,
		setMask:  c.setMask,
		setBits:  c.setBits,
		lineBits: c.lineBits,
	}
	return c, nil
}

// VisitResident calls fn for every valid line with its reconstructed
// physical address and dirty bit, in deterministic set-major, way-minor
// order. It reads only: no statistics or recency state change, so it is
// safe to call between measurement phases.
func (c *Cache) VisitResident(fn func(addr uint64, dirty bool)) {
	ways := c.geom.Ways
	for set := range len(c.tags) / ways {
		base := set * ways
		for w, tag := range c.tags[base : base+ways] {
			if tag != 0 {
				fn(c.reconstruct(set, tag), c.dirty[base+w])
			}
		}
	}
}

// Clone returns a deep copy of the prefetcher, including stream-detection
// state and statistics.
func (p *StreamPrefetcher) Clone() *StreamPrefetcher {
	n := new(StreamPrefetcher)
	*n = *p
	n.streams = append([]stream(nil), p.streams...)
	return n
}
