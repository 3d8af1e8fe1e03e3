package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"secddr/internal/cache"
	"secddr/internal/config"
	"secddr/internal/cpu"
	"secddr/internal/scenario"
	"secddr/internal/secmem"
	"secddr/internal/trace"
)

// Fork-after-warmup. Grid points in one figure differ only in their
// security mode, but each used to pay its own warmup from cycle zero. The
// warmup phase now runs under one canonical, mode-independent configuration
// and ends at a drained fixpoint (cores frozen at their warmup target,
// memory system idle), so the warmed system is a pure deterministic
// function of a small spec — Options.WarmupKey. A Warmed snapshot can then
// be copied (forked) once per mode, and each fork resumes under its own
// measured configuration, producing Results byte-identical to a cold
// run of the same point. See DESIGN.md "Fork-after-warmup".

// warmupConfig returns the canonical configuration the warmup phase runs
// under: the measured configuration with its security block replaced by
// the unprotected baseline (and the default metadata-cache geometry, which
// is unused in unprotected mode but keeps the struct canonical), then
// re-normalized so derived fields such as the write burst length match.
// Everything that shapes the warmed state — core count and widths, cache
// geometries, prefetcher, DRAM organization and clocks — passes through
// unchanged.
func warmupConfig(cfg config.Config) config.Config {
	cfg.Security = config.Security{
		Mode:       config.ModeUnprotected,
		Encryption: config.EncNone,
		MetadataCache: config.CacheGeom{
			SizeBytes: 128 << 10, LineBytes: 64, Ways: 8, HitLatency: 2,
		},
	}
	cfg.Normalize()
	return cfg
}

// warmupOptions reduces o to the spec that fully determines its warmup
// phase. InstrPerCore and MaxCycles are deliberately absent: the warmup
// neither runs measured instructions nor inherits the measured cycle cap,
// so points that differ only in measured length share a warmed snapshot.
// The warmup's own cap covers the timed phase (400 cycles per warmup
// instruction, like the measured default) plus a fixed drain allowance.
func warmupOptions(o Options) Options {
	o = o.withDefaults()
	return Options{
		Config:       warmupConfig(o.Config),
		Workload:     o.Workload,
		Scenario:     o.Scenario,
		WarmupInstr:  o.WarmupInstr,
		Seed:         o.Seed,
		MSHRsPerCore: o.MSHRsPerCore,
		MaxCycles:    int64(o.WarmupInstr)*400 + (1 << 20),
	}
}

// WarmupKey returns a stable hex key identifying the warmed snapshot this
// run's warmup phase produces. The warmed state is a pure deterministic
// function of the canonical warmup spec (warmupOptions) and the simulator
// revision, so hashing the spec is equivalent to hashing a canonical
// encoding of the snapshot contents — and is what lets the harness group
// grid points that can fork from one warmup. Points whose keys are equal
// warm identically; points whose keys differ may not share a snapshot.
func (o Options) WarmupKey() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("warm-v%d %+v", simVersion, warmupOptions(o))))
	return hex.EncodeToString(h[:])
}

// warmupRuns counts timed warmup phases executed by this process, cold
// runs included. The harness tests use the delta around a campaign to
// prove warmup sharing (exactly one warmup per snapshot group).
var warmupRuns atomic.Uint64

// WarmupRuns returns the process-wide count of timed warmup executions.
func WarmupRuns() uint64 { return warmupRuns.Load() }

// clone deep-copies the reference-bearing parts of Options (the scenario's
// scripts); everything else is a value.
func (o Options) clone() Options {
	if len(o.Scenario.Cores) > 0 {
		cores := make([]scenario.CoreScript, len(o.Scenario.Cores))
		for i, cs := range o.Scenario.Cores {
			cores[i] = cs.Clone()
		}
		o.Scenario.Cores = cores
	}
	return o
}

// llcPool recycles LLC storage between grid points. Warmed.Fork gives a
// finished point's LLC back once its Result is collected; fork copies the
// template into a pooled LLC, and warmSystem resets one for a new warmup,
// so a sweep allocates LLC arrays once per concurrent point, not once per
// point. Only caches nothing else references are put here. It is a plain
// free list, so any goroutine takes what any other gave back, and it
// keeps at most one LLC per P: no more points than that run at once on a
// default harness pool.
var llcPool struct {
	sync.Mutex
	free []*cache.Cache
}

// takeLLC returns a recycled LLC, or nil when the pool is empty; the
// cache.Cache Clone and Reset methods allocate for a nil or mismatched one.
func takeLLC() *cache.Cache {
	llcPool.Lock()
	defer llcPool.Unlock()
	n := len(llcPool.free)
	if n == 0 {
		return nil
	}
	c := llcPool.free[n-1]
	llcPool.free[n-1] = nil
	llcPool.free = llcPool.free[:n-1]
	return c
}

// putLLC gives c to the pool, or to the garbage collector when the pool
// is full.
func putLLC(c *cache.Cache) {
	llcPool.Lock()
	defer llcPool.Unlock()
	if len(llcPool.free) < runtime.GOMAXPROCS(0) {
		llcPool.free = append(llcPool.free, c)
	}
}

// fork copies a warmed template for one measured run: the cores with
// their op-source cursors, the LLC (into recycled storage) and
// prefetcher, the idle MSHR slab, and every per-core bookkeeping slice.
// A template (Warmed.sys) holds no engine — Warmed keeps the drained
// warmup engine beside it, and resume builds the measured one — and no
// fill in flight, so nothing else in it is live; fork refuses any other
// system. The copy shares no mutable storage with the template (the
// snapshot completeness tests walk both state graphs and fail on any
// aliasing), so many forks can resume concurrently from one snapshot.
func (s *system) fork() (*system, error) {
	if s.engine != nil || len(s.byLine) != 0 {
		return nil, errors.New("sim: fork: not a warmed template (engine attached or fills in flight)")
	}
	n := new(system)
	*n = *s
	n.opt = s.opt.clone()
	n.llc = s.llc.Clone(takeLLC())
	n.pf = s.pf.Clone()
	n.cores = make([]*cpu.Core, len(s.cores))
	for i, c := range s.cores {
		cc, err := c.Clone(&corePort{s: n, id: i})
		if err != nil {
			return nil, fmt.Errorf("sim: fork: core %d: %w", i, err)
		}
		n.cores[i] = cc
	}
	n.mshrs = make([]mshrEntry, len(s.mshrs))
	for i, e := range s.mshrs {
		e.waiters = append([]waiter(nil), e.waiters...)
		n.mshrs[i] = e
	}
	n.freeMSHRs = append([]int32(nil), s.freeMSHRs...)
	n.byLine = make(map[uint64]int32)
	n.pfBuf = append([]uint64(nil), s.pfBuf...)
	n.mshrInUse = append([]int(nil), s.mshrInUse...)
	n.coreNextAt = append([]int64(nil), s.coreNextAt...)
	n.frozen = append([]bool(nil), s.frozen...)
	n.finishCycle = append([]int64(nil), s.finishCycle...)
	n.warmCycle = append([]int64(nil), s.warmCycle...)
	n.mshrRejects = append([]uint64(nil), s.mshrRejects...)
	// Per-run state, armed at or after resume: a template has none.
	n.prof, n.samp, n.tl = nil, nil, nil
	return n, nil
}

// Warmed is a warmed, drained system snapshot that measured runs fork
// from. The snapshot itself is immutable after Warmup returns — forking
// only reads it — and the primed-metadata memo is mutex-guarded, so any
// number of Fork calls may run concurrently against one Warmed.
type Warmed struct {
	key string
	// sys is the fork template: the warmed system with its engine
	// detached. warm is the drained warmup engine, kept beside it: each
	// fork's resume reads its DRAM channel state and nothing writes it, so
	// all forks share it.
	sys  *system
	warm *secmem.Engine

	// primed memoizes the functionally-primed metadata cache per metadata
	// layout (secmem.MetaLayout). Priming is a pure function of the
	// immutable resident LLC and that layout, so the first fork of each
	// layout computes it and later forks copy it — which turns the
	// dominant per-fork cost in mixed-fidelity sweeps (every grid point
	// forks once per fidelity) into a small memcpy, and lets modes that
	// differ only outside the layout (secddr+ctr and encrypt-only-ctr)
	// share one pass.
	mu     sync.Mutex
	primed map[secmem.MetaLayout]*cache.Cache
}

// Warmup runs the canonical warmup phase for opt and returns the snapshot
// every point with the same WarmupKey can fork from. opt is validated
// exactly as Run validates it.
func Warmup(opt Options) (*Warmed, error) { return WarmupShared(opt, nil) }

// WarmupShared is Warmup with the measured streams' page tables taken
// from tables, which shuffles each one on first use and keeps it for
// later warmups and runs of the same table class. tables is not part of
// the snapshot's key: the snapshot is the one Warmup(opt) returns, and
// its forks read the shared tables in place.
func WarmupShared(opt Options, tables *trace.Tables) (*Warmed, error) {
	s, err := warmSystem(opt, false, tables)
	if err != nil {
		return nil, err
	}
	w := &Warmed{key: opt.WarmupKey(), sys: s, warm: s.engine}
	s.engine = nil
	return w, nil
}

// Key returns the warmup group key this snapshot serves (Options.WarmupKey).
func (w *Warmed) Key() string { return w.key }

// Fork copies the warmed template and completes the measured region
// under opt, returning exactly the Result a cold Run(opt) returns. opt
// must belong to this snapshot's warmup group.
func (w *Warmed) Fork(opt Options) (Result, error) {
	if opt.InstrPerCore == 0 {
		return Result{}, errors.New("sim: InstrPerCore must be positive")
	}
	if got := opt.WarmupKey(); got != w.key {
		return Result{}, fmt.Errorf("sim: fork warmup-key mismatch: point %s vs snapshot %s", got[:16], w.key[:16])
	}
	s, err := w.sys.fork()
	if err != nil {
		return Result{}, err
	}
	pk := secmem.MetaLayoutOf(opt.withDefaults().Config)
	primed := w.lookupPrimed(pk)
	if err := s.resume(opt, w.warm, primed); err != nil {
		return Result{}, err
	}
	if primed == nil {
		// resume just primed a fresh metadata cache for this layout (or
		// the configuration has none, and there is nothing to memoize);
		// nothing has run yet, so this is exactly the state every later
		// fork with the same layout adopts.
		if mc := s.engine.MetaCache(); mc != nil {
			w.storePrimed(pk, mc.Clone(nil))
		}
	}
	if err := s.runMeasuredRegion(); err != nil {
		return Result{}, err
	}
	res := s.collect()
	// The Result holds no reference into s, and s is dropped here: its
	// LLC storage goes to the next fork or warmup.
	putLLC(s.llc)
	return res, nil
}

// lookupPrimed returns the memoized primed metadata cache for a metadata
// layout, or nil on first use.
func (w *Warmed) lookupPrimed(k secmem.MetaLayout) *cache.Cache {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.primed[k]
}

// storePrimed records a primed metadata cache for a metadata layout.
// Concurrent first forks may race to store: the values are identical (the
// priming pass is deterministic), and the first store wins.
func (w *Warmed) storePrimed(k secmem.MetaLayout, c *cache.Cache) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.primed == nil {
		w.primed = make(map[secmem.MetaLayout]*cache.Cache)
	}
	if _, ok := w.primed[k]; !ok {
		w.primed[k] = c
	}
}
