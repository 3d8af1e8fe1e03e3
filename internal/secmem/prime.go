package secmem

import (
	"sync"

	"secddr/internal/cache"
	"secddr/internal/config"
)

// leafBitmaps recycles the priming pass's leaf bitmaps (*[]uint64): each
// pass borrows one and gives it back when it ends, so a sweep that primes
// once per grid point allocates one bitmap per concurrent pass, not one
// per point.
var leafBitmaps sync.Pool

// MetaLayout is everything about a configuration that NewEngine's
// metadata walk and metadata cache depend on: whether metadata exists,
// whether a walk covers the whole tree or only the counter line, the
// tree's shape (data capacity, line size, entries per leaf line and
// arity, which fix its leaf shift and node addresses), and the metadata
// cache's geometry. NewEngine builds its tree and metadata cache from it
// alone, so PrimeResident's output is a function of the LLC and the
// layout: configurations with equal layouts, such as secddr+ctr and
// encrypt-only-ctr, prime byte-identical metadata caches from one LLC,
// and a primed cache may be memoized under its layout. Configurations
// without metadata have the zero layout.
type MetaLayout struct {
	walk      bool
	fullTree  bool
	dataBytes int64
	lineBytes int
	perLeaf   int
	arity     int
	cache     config.CacheGeom
}

// MetaLayoutOf returns cfg's metadata layout.
func MetaLayoutOf(cfg config.Config) MetaLayout {
	sec := cfg.Security
	if sec.Encryption != config.EncCounterMode && sec.Mode != config.ModeIntegrityTree {
		return MetaLayout{}
	}
	m := MetaLayout{
		walk:      true,
		fullTree:  sec.Mode == config.ModeIntegrityTree,
		dataBytes: cfg.DRAM.CapacityBytes,
		lineBytes: cfg.LLC.LineBytes,
		perLeaf:   sec.CountersPerLine,
		arity:     sec.TreeArity,
		cache:     sec.MetadataCache,
	}
	if !m.fullTree {
		// Flat counters: a single-level "tree" (walk = counter line only).
		m.arity = 2
	}
	if sec.HashTree {
		m.perLeaf = 8 // 8 MACs of 8B per 64B line
	}
	return m
}

// PrimeResident installs, for every line resident in llc, the metadata
// walk of that data line into the metadata cache as clean fills, without
// touching access statistics. A resumed (or forked) run calls it once so
// the metadata cache starts consistent with the data the measured region
// will re-reference — the functional analogue of the LLC warmup. Engines
// without metadata have nothing to prime.
//
// The walk is a pure function of the data line's counter-leaf index
// (integrity.Tree.WalkAddrs derives every level from lineIdx/perLeaf), so
// all lines sharing a leaf produce the identical address list. Priming is
// an idempotent ensure-present sweep, so each leaf group is walked once
// and later lines from the same group are skipped, tracked in a bitmap
// over the tree's leaf level (a map costs more than the walks it skips)
// — on a warmed LLC that is a ~perLeaf-fold cut in probe/fill work. The
// bitmap lives for this one pass: it is borrowed cleared from a pool and
// returned at the end, so no engine keeps one.
func (e *Engine) PrimeResident(llc *cache.Cache) {
	e.primeResident(llc, &leafBitmaps)
}

// primeResident is PrimeResident drawing its bitmap from pool.
func (e *Engine) primeResident(llc *cache.Cache, pool *sync.Pool) {
	if !e.meta.walk {
		return
	}
	shift, ok := e.tree.LeafShift()
	if !ok {
		llc.VisitResident(func(addr uint64, _ bool) { e.primeWalk(addr) })
		return
	}
	words := int((e.tree.NodeCount(0) + 63) / 64)
	bm, _ := pool.Get().(*[]uint64)
	if bm == nil || cap(*bm) < words {
		b := make([]uint64, words)
		bm = &b
	} else {
		*bm = (*bm)[:words]
		clear(*bm)
	}
	seen := *bm
	llc.VisitResident(func(addr uint64, _ bool) {
		idx := addr >> shift
		if seen[idx>>6]&(1<<(idx&63)) != 0 {
			return
		}
		seen[idx>>6] |= 1 << (idx & 63)
		e.primeWalk(addr)
	})
	pool.Put(bm)
}

// primeWalk ensures addr's metadata walk is resident in the metadata cache.
func (e *Engine) primeWalk(addr uint64) {
	for _, a := range e.walkAddrs(addr) {
		if !e.metaCache.Probe(a) {
			e.metaCache.Fill(a, false)
		}
	}
}
