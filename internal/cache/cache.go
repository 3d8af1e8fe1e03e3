// Package cache provides the set-associative caches used across the
// simulated system: the per-core L1D, the shared LLC, and the shared 128KB
// security-metadata cache that holds encryption counters and integrity-tree
// nodes (Table I of the paper). It also implements the LLC stream
// prefetcher.
package cache

import (
	"fmt"
	"math/bits"

	"secddr/internal/config"
)

// Cache is a write-back, write-allocate set-associative cache with LRU
// replacement. The zero value is not usable; construct with New.
//
// Way state lives in three flat arrays indexed set*ways + way, so a set
// is one dense run of each and a copy is three flat copies. A stored tag
// is the line's tag plus one: 0 marks an invalid way. LRU is by
// timestamp: each hit or fill stamps its way with the cache's tick.
type Cache struct {
	geom     config.CacheGeom
	tags     []uint64
	lastUse  []uint64
	dirty    []bool
	setMask  uint64
	setBits  uint
	lineBits uint
	tick     uint64

	// Stats counters (exported for cheap access from the simulator).
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// New constructs a cache from its geometry.
func New(geom config.CacheGeom) (*Cache, error) {
	if err := geom.Validate(); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	sets := geom.Sets()
	n := sets * geom.Ways
	return &Cache{
		geom:     geom,
		tags:     make([]uint64, n),
		lastUse:  make([]uint64, n),
		dirty:    make([]bool, n),
		setMask:  uint64(sets - 1),
		setBits:  uint(bits.Len(uint(sets - 1))),
		lineBits: uint(bits.Len(uint(geom.LineBytes)) - 1),
	}, nil
}

// Geom returns the cache geometry.
func (c *Cache) Geom() config.CacheGeom { return c.geom }

// index returns addr's set and the tag stored for it (its line tag plus
// one). The set's ways sit at flat indices set*ways onward.
func (c *Cache) index(addr uint64) (set int, tag uint64) {
	l := addr >> c.lineBits
	return int(l & c.setMask), l>>c.setBits + 1
}

// reconstruct rebuilds the line-aligned address held in set under the
// stored tag tag.
func (c *Cache) reconstruct(set int, tag uint64) uint64 {
	return ((tag-1)<<c.setBits | uint64(set)) << c.lineBits
}

// Access looks up addr, updating LRU and (for writes) the dirty bit on a
// hit. It returns whether the access hit. Misses do not allocate; callers
// decide when the fill arrives (see Fill).
func (c *Cache) Access(addr uint64, write bool) bool {
	c.Accesses++
	set, tag := c.index(addr)
	base := set * c.geom.Ways
	c.tick++
	for i, t := range c.tags[base : base+c.geom.Ways] {
		if t == tag {
			c.lastUse[base+i] = c.tick
			if write {
				c.dirty[base+i] = true
			}
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Probe reports whether addr is present without perturbing LRU or stats.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	base := set * c.geom.Ways
	for _, t := range c.tags[base : base+c.geom.Ways] {
		if t == tag {
			return true
		}
	}
	return false
}

// Victim describes a line evicted by Fill.
type Victim struct {
	Addr  uint64
	Dirty bool
}

// Fill installs addr (allocating on write if dirty is set) and returns the
// evicted victim, if any. Filling an already-present line just refreshes it
// (e.g. a prefetch raced a demand fill). Otherwise the line takes the
// first invalid way, or else evicts the least recently used one, the
// lowest way among equals.
func (c *Cache) Fill(addr uint64, dirty bool) (Victim, bool) {
	set, tag := c.index(addr)
	base := set * c.geom.Ways
	c.tick++
	way := -1
	for i, t := range c.tags[base : base+c.geom.Ways] {
		if t == tag {
			c.lastUse[base+i] = c.tick
			if dirty {
				c.dirty[base+i] = true
			}
			return Victim{}, false
		}
		if t == 0 && way < 0 {
			way = i
		}
	}
	var victim Victim
	hasVictim := way < 0
	if hasVictim {
		lru := c.lastUse[base : base+c.geom.Ways]
		way = 0
		for i, u := range lru {
			if u < lru[way] {
				way = i
			}
		}
		victim = Victim{Addr: c.reconstruct(set, c.tags[base+way]), Dirty: c.dirty[base+way]}
		c.Evictions++
		if victim.Dirty {
			c.Writebacks++
		}
	}
	w := base + way
	c.tags[w], c.lastUse[w], c.dirty[w] = tag, c.tick, dirty
	return victim, hasVictim
}
