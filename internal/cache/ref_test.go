package cache

import (
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"secddr/internal/config"
)

// ---------------------------------------------------------------------------
// Reference cache. refCache is Cache as it was before the flat per-way
// arrays: one 24-byte line struct per way, reached through a slice header
// per set, with Access, Probe, Fill, Clone and VisitResident verbatim. The
// differential test runs it beside the real cache on the same operation
// stream and asserts the two never diverge.
// ---------------------------------------------------------------------------

type refLine struct {
	tag     uint64
	valid   bool
	dirty   bool
	lastUse uint64
}

type refCache struct {
	sets     [][]refLine
	setMask  uint64
	lineBits uint
	tick     uint64

	Accesses, Hits, Misses, Evictions, Writebacks uint64
}

func newRefCache(geom config.CacheGeom) *refCache {
	sets := geom.Sets()
	c := &refCache{
		sets:     make([][]refLine, sets),
		setMask:  uint64(sets - 1),
		lineBits: uint(bits.Len(uint(geom.LineBytes)) - 1),
	}
	ways := make([]refLine, sets*geom.Ways)
	for i := range c.sets {
		c.sets[i] = ways[i*geom.Ways : (i+1)*geom.Ways : (i+1)*geom.Ways]
	}
	return c
}

func (c *refCache) index(addr uint64) (set uint64, tag uint64) {
	l := addr >> c.lineBits
	return l & c.setMask, l >> uint(bits.Len64(c.setMask))
}

func (c *refCache) reconstruct(set, tag uint64) uint64 {
	setBits := uint(bits.Len64(c.setMask))
	return (tag<<setBits | set) << c.lineBits
}

func (c *refCache) Access(addr uint64, write bool) bool {
	c.Accesses++
	set, tag := c.index(addr)
	c.tick++
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			ln.lastUse = c.tick
			if write {
				ln.dirty = true
			}
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

func (c *refCache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) Fill(addr uint64, dirty bool) (Victim, bool) {
	set, tag := c.index(addr)
	c.tick++
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			ln.lastUse = c.tick
			if dirty {
				ln.dirty = true
			}
			return Victim{}, false
		}
	}
	victimIdx := -1
	for i := range c.sets[set] {
		if !c.sets[set][i].valid {
			victimIdx = i
			break
		}
	}
	var victim Victim
	hasVictim := false
	if victimIdx < 0 {
		victimIdx = 0
		for i := 1; i < len(c.sets[set]); i++ {
			if c.sets[set][i].lastUse < c.sets[set][victimIdx].lastUse {
				victimIdx = i
			}
		}
		v := c.sets[set][victimIdx]
		c.Evictions++
		victim = Victim{Addr: c.reconstruct(set, v.tag), Dirty: v.dirty}
		hasVictim = true
		if v.dirty {
			c.Writebacks++
		}
	}
	c.sets[set][victimIdx] = refLine{tag: tag, valid: true, dirty: dirty, lastUse: c.tick}
	return victim, hasVictim
}

func (c *refCache) Clone() *refCache {
	n := new(refCache)
	*n = *c
	sets := len(c.sets)
	ways := len(c.sets[0])
	n.sets = make([][]refLine, sets)
	lines := make([]refLine, sets*ways)
	for i := range n.sets {
		n.sets[i] = lines[i*ways : (i+1)*ways : (i+1)*ways]
		copy(n.sets[i], c.sets[i])
	}
	return n
}

func (c *refCache) VisitResident(fn func(addr uint64, dirty bool)) {
	for set := range c.sets {
		for i := range c.sets[set] {
			ln := &c.sets[set][i]
			if ln.valid {
				fn(c.reconstruct(uint64(set), ln.tag), ln.dirty)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Differential oracle: flat cache vs reference.
// ---------------------------------------------------------------------------

// resident is one line VisitResident reports.
type resident struct {
	addr  uint64
	dirty bool
}

// opStream draws cache operations for one geometry from a fixed seed.
// Half of the addresses fall in a few hot sets under twice as many tags
// as the set has ways, spread over the whole tag width, so those sets
// fill, conflict and evict from the first operations on; the other half
// are uniform over twice the cache's capacity.
type opStream struct {
	g        config.CacheGeom
	rng      *rand.Rand
	hotSets  []uint64
	hotTags  []uint64
	setBits  uint
	lineBits uint
}

func newOpStream(g config.CacheGeom, seed uint64) *opStream {
	s := &opStream{
		g:        g,
		rng:      rand.New(rand.NewPCG(seed, 0xcac4e)),
		setBits:  uint(bits.Len(uint(g.Sets() - 1))),
		lineBits: uint(bits.Len(uint(g.LineBytes)) - 1),
	}
	for range min(4, g.Sets()) {
		s.hotSets = append(s.hotSets, s.rng.Uint64N(uint64(g.Sets())))
	}
	tagBits := 64 - s.setBits - s.lineBits
	for range 2 * g.Ways {
		s.hotTags = append(s.hotTags, s.rng.Uint64()>>(64-tagBits))
	}
	return s
}

func (s *opStream) addr() uint64 {
	if s.rng.IntN(2) == 0 {
		set := s.hotSets[s.rng.IntN(len(s.hotSets))]
		tag := s.hotTags[s.rng.IntN(len(s.hotTags))]
		return (tag<<s.setBits|set)<<s.lineBits | s.rng.Uint64N(uint64(s.g.LineBytes))
	}
	return s.rng.Uint64N(2 * uint64(s.g.SizeBytes))
}

// TestCacheMatchesReference drives the flat cache and the reference cache
// with identical seeded streams of Access, Probe, Fill and Clone on the
// Table I L1D, LLC and metadata cache and on a 2-set high-conflict
// geometry, and asserts after every operation that hit results, victims,
// statistics and the VisitResident sequence are identical. A Clone
// continues on the copies after mutating the originals, so a copy that
// shared storage with its original would diverge; from the second Clone
// on, the copy is written into the previous, mutated original, so a copy
// that kept any of its target's old state would diverge too.
func TestCacheMatchesReference(t *testing.T) {
	cfg := config.Table1(config.ModeSecDDRCTR)
	for _, tc := range []struct {
		name string
		geom config.CacheGeom
		ops  int
	}{
		{"l1d", cfg.L1D, 20_000},
		{"llc", cfg.LLC, 4_000},
		{"metadata", cfg.Security.MetadataCache, 10_000},
		{"conflict", config.CacheGeom{SizeBytes: 2 * 4 * 64, LineBytes: 64, Ways: 4, HitLatency: 1}, 20_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.geom)
			if err != nil {
				t.Fatal(err)
			}
			r := newRefCache(tc.geom)
			s := newOpStream(tc.geom, 42)
			// spare is the cache a clone is copied into: nil at first,
			// then the mutated original the previous clone replaced.
			var spare *Cache
			var gotLines, wantLines []resident
			var evictions int
			for op := range tc.ops {
				addr := s.addr()
				var kind string
				switch k := s.rng.IntN(100); {
				case k < 45:
					kind = "access"
					write := s.rng.IntN(10) < 3
					if got, want := c.Access(addr, write), r.Access(addr, write); got != want {
						t.Fatalf("op %d: Access(%#x, %v) = %v, reference %v", op, addr, write, got, want)
					}
				case k < 60:
					kind = "probe"
					if got, want := c.Probe(addr), r.Probe(addr); got != want {
						t.Fatalf("op %d: Probe(%#x) = %v, reference %v", op, addr, got, want)
					}
				case k < 98:
					kind = "fill"
					dirty := s.rng.IntN(4) == 0
					gv, gh := c.Fill(addr, dirty)
					wv, wh := r.Fill(addr, dirty)
					if gv != wv || gh != wh {
						t.Fatalf("op %d: Fill(%#x, %v) = %+v,%v, reference %+v,%v", op, addr, dirty, gv, gh, wv, wh)
					}
					if gh {
						evictions++
					}
				default:
					kind = "clone"
					nc, nr := c.Clone(spare), r.Clone()
					c.Fill(addr, true)
					r.Fill(addr, true)
					c, r, spare = nc, nr, c
				}
				got := [5]uint64{c.Accesses, c.Hits, c.Misses, c.Evictions, c.Writebacks}
				want := [5]uint64{r.Accesses, r.Hits, r.Misses, r.Evictions, r.Writebacks}
				if got != want {
					t.Fatalf("op %d (%s): stats %v, reference %v", op, kind, got, want)
				}
				gotLines, wantLines = gotLines[:0], wantLines[:0]
				c.VisitResident(func(a uint64, d bool) { gotLines = append(gotLines, resident{a, d}) })
				r.VisitResident(func(a uint64, d bool) { wantLines = append(wantLines, resident{a, d}) })
				if !slices.Equal(gotLines, wantLines) {
					t.Fatalf("op %d (%s): VisitResident differs from the reference (%d vs %d lines)",
						op, kind, len(gotLines), len(wantLines))
				}
			}
			if evictions == 0 {
				t.Error("the stream never evicted: the oracle did not reach LRU replacement")
			}
		})
	}
}
