package cache

import "slices"

// Clone returns a deep copy of the cache: identical geometry, content,
// recency state, and statistics, sharing no storage with the original.
func (c *Cache) Clone() *Cache {
	n := new(Cache)
	*n = *c
	n.tags = slices.Clone(c.tags)
	n.lastUse = slices.Clone(c.lastUse)
	n.dirty = slices.Clone(c.dirty)
	return n
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
