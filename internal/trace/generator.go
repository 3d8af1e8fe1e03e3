package trace

import (
	"fmt"

	"secddr/internal/cpu"
)

const (
	_lineBytes = 64
	_pageBytes = 4096
)

// Generator expands a Profile into a deterministic, endless cpu.Op stream.
// Each simulated core gets its own Generator (distinct seed and physical
// base address, matching SPEC-rate replication of one SimPoint per core).
type Generator struct {
	p    Profile
	rng  rng
	base uint64 // physical base address of this core's footprint

	pagePerm  *PageTable //lint:cloned-via shared: immutable, clones read the same table
	pages     uint64
	hotPages  uint64
	midPages  uint64    // medium-locality tier (page-level temporal reuse)
	midFrac   float64   // fraction of cold accesses drawn from the mid tier
	streamPos [4]uint64 // stream cursors (virtual offsets)
	gapBase   int
}

var _ cpu.OpSource = (*Generator)(nil)

// NewGenerator builds a generator for profile p. base is the core's
// physical footprint base; seed derives all randomness. It shuffles a
// page table of its own; Tables.NewGenerator shares one.
func NewGenerator(p Profile, base uint64, seed uint64) (*Generator, error) {
	return newGenerator(p, base, seed, func(pages uint64, r rng) *PageTable {
		return buildPageTable(nil, pages, r)
	})
}

// RunOps hands fn, in order, the first n ops of the stream that
// NewGenerator(p, base, seed) produces. It is for throwaway streams, such
// as a functional cache warmup's: the page table is shuffled into buf's
// storage (allocated afresh only when buf is too short) instead of a
// table of its own that would die at once. The stream never outlives the
// call, so nothing can read buf's table after the caller reuses buf.
// RunOps returns the buffer, grown as needed, for the next stream.
func RunOps(p Profile, base, seed uint64, n int, buf []uint32, fn func(cpu.Op)) ([]uint32, error) {
	g, err := newGenerator(p, base, seed, func(pages uint64, r rng) *PageTable {
		return buildPageTable(buf, pages, r)
	})
	if err != nil {
		return buf, err
	}
	for range n {
		op, _ := g.Next()
		fn(op)
	}
	return g.pagePerm.perm, nil
}

// newGenerator builds a generator for profile p whose page table is
// table(pages, r): the permutation of the footprint's pages shuffled from
// r, with r's state after the shuffle.
func newGenerator(p Profile, base, seed uint64, table func(pages uint64, r rng) *PageTable) (*Generator, error) {
	if p.Footprint < _pageBytes || p.HotBytes < _pageBytes {
		return nil, fmt.Errorf("trace: footprint/hot set too small in profile %q", p.Name)
	}
	if p.HotBytes > p.Footprint {
		return nil, fmt.Errorf("trace: hot set exceeds footprint in profile %q", p.Name)
	}
	g := &Generator{
		p:     p,
		base:  base,
		pages: p.Footprint / _pageBytes,
	}
	g.hotPages = p.HotBytes / _pageBytes
	// Random page mapping (Section IV-A), drawn first from the seed's
	// stream; the rest of the stream continues where the shuffle stopped.
	g.pagePerm = table(g.pages, rng{state: seed ^ 0x9e3779b97f4a7c15})
	g.rng = g.pagePerm.after
	// Ops per kilo-instruction such that the cold (missing) fraction lands
	// near the profile's target MPKI.
	cold := 1 - p.HotFrac
	if cold < 0.01 {
		cold = 0.01
	}
	apki := p.MPKI / cold
	switch p.Pattern {
	case PatternRandom, PatternChase, PatternGraph:
		// Mid-tier (popular page) draws partially hit in the LLC; raise the
		// op rate so measured demand MPKI stays near the profile target.
		apki *= 1.35
	}
	if apki > 250 {
		apki = 250
	}
	g.gapBase = int(1000/apki) - 1
	if g.gapBase < 0 {
		g.gapBase = 0
	}
	for i := range g.streamPos {
		g.streamPos[i] = (uint64(i) * p.Footprint / 4) % p.Footprint
	}
	// Irregular workloads revisit pages far more often than uniform-random
	// line selection would suggest (zipf-like page popularity); the medium
	// tier models that page-level temporal reuse, which is what gives the
	// encryption-counter metadata cache its partial hit rate in Fig. 7.
	switch p.Pattern {
	case PatternRandom, PatternChase:
		g.midFrac = 0.5
	case PatternGraph:
		g.midFrac = 0.55
	case PatternMixed:
		g.midFrac = 0.3
	}
	mid := p.Footprint / 64
	if mid > 2*_mb {
		mid = 2 * _mb
	}
	g.midPages = mid / _pageBytes
	if g.midPages == 0 {
		g.midPages = 1
	}
	return g, nil
}

// Next produces the next memory operation. The stream is endless; the
// simulator bounds runs by retired instructions.
func (g *Generator) Next() (cpu.Op, bool) {
	var va uint64
	hot := g.rng.float() < g.p.HotFrac
	if hot {
		va = g.hotVA()
	} else {
		va = g.coldVA()
	}
	op := cpu.Op{
		Gap:  g.jitteredGap(),
		Addr: g.translate(va),
	}
	if g.rng.float() < g.p.StoreFrac {
		op.Store = true
	} else if !hot && g.p.DependentFrac > 0 && g.rng.float() < g.p.DependentFrac {
		op.DependsPrev = true
	}
	return op, true
}

// hotVA picks a line in the hot set (biased toward the front to create an
// LRU-friendly skew).
func (g *Generator) hotVA() uint64 {
	r := g.rng.float()
	r *= r // quadratic skew toward page 0
	page := uint64(r * float64(g.hotPages))
	if page >= g.hotPages {
		page = g.hotPages - 1
	}
	off := (g.rng.next() % (_pageBytes / _lineBytes)) * _lineBytes
	return page*_pageBytes + off
}

// coldVA picks the next cold-region address per the profile pattern.
func (g *Generator) coldVA() uint64 {
	switch g.p.Pattern {
	case PatternStream:
		return g.advanceStream(0, _lineBytes)
	case PatternStrided:
		return g.advanceStream(0, 4*_lineBytes)
	case PatternRandom, PatternChase:
		return g.randomVA()
	case PatternGraph:
		// 30% frontier scan (sequential), 70% neighbour lookups (random).
		if g.rng.float() < 0.3 {
			return g.advanceStream(0, _lineBytes)
		}
		return g.randomVA()
	case PatternMixed:
		if g.rng.float() < 0.5 {
			return g.advanceStream(0, _lineBytes)
		}
		return g.randomVA()
	default:
		return g.randomVA()
	}
}

// advanceStream rotates among four stream cursors, advancing by stride.
func (g *Generator) advanceStream(_ int, stride uint64) uint64 {
	idx := int(g.rng.next() % uint64(len(g.streamPos)))
	g.streamPos[idx] = (g.streamPos[idx] + stride) % g.p.Footprint
	return g.streamPos[idx]
}

func (g *Generator) randomVA() uint64 {
	if g.midFrac > 0 && g.rng.float() < g.midFrac {
		// Popular-page draw: random line within the medium tier.
		page := g.rng.next() % g.midPages
		off := (g.rng.next() % (_pageBytes / _lineBytes)) * _lineBytes
		return page*_pageBytes + off
	}
	line := g.rng.next() % (g.p.Footprint / _lineBytes)
	return line * _lineBytes
}

// translate applies the random page permutation and the core's base offset.
func (g *Generator) translate(va uint64) uint64 {
	page := va / _pageBytes
	off := va % _pageBytes
	pa := uint64(g.pagePerm.perm[page%g.pages])*_pageBytes + off
	return g.base + pa
}

// jitteredGap spreads instruction gaps +/-50% around the profile mean.
func (g *Generator) jitteredGap() int {
	if g.gapBase == 0 {
		return 0
	}
	f := 0.5 + g.rng.float() // [0.5, 1.5)
	gap := int(f * float64(g.gapBase))
	if gap < 0 {
		gap = 0
	}
	return gap
}

// VisitHotPages calls fn with the physical base address of every page in
// the profile's hot set. Simulators use this for functional cache warmup so
// short measured regions reflect steady-state behaviour.
func (g *Generator) VisitHotPages(fn func(pageAddr uint64)) {
	for p := uint64(0); p < g.hotPages; p++ {
		fn(g.translate(p * _pageBytes))
	}
}

// rng is splitmix64: tiny, fast, deterministic.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// Clone returns a copy of the generator: same profile, RNG state, and
// stream cursors. The immutable page table is shared, not copied; every
// other field is a value, so the clone shares no mutable storage with g.
// A clone's Next stream is cycle-for-cycle identical to the original's
// continuation.
func (g *Generator) Clone() *Generator {
	n := *g
	return &n
}

// CloneSource implements cpu.CloneableSource.
func (g *Generator) CloneSource() cpu.OpSource { return g.Clone() }
