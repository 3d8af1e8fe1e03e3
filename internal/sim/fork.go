package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"secddr/internal/cache"
	"secddr/internal/config"
	"secddr/internal/cpu"
	"secddr/internal/scenario"
)

// Fork-after-warmup. Grid points in one figure differ only in their
// security mode, but each used to pay its own warmup from cycle zero. The
// warmup phase now runs under one canonical, mode-independent configuration
// and ends at a drained fixpoint (cores frozen at their warmup target,
// memory system idle), so the warmed system is a pure deterministic
// function of a small spec — Options.WarmupKey. A Warmed snapshot can then
// be deep-copied (forked) once per mode, and each fork resumes under its
// own measured configuration, producing Results byte-identical to a cold
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

// fork deep-copies the whole system: cores with their op-source cursors,
// LLC and prefetcher, the security engine (controllers, DRAM channels,
// metadata structures, in-flight transactions), the MSHR slab with each
// slot's waiters, and every per-core bookkeeping slice. The copy shares no
// mutable storage with the parent — the snapshot completeness test walks
// both state graphs and fails on any aliasing — so resuming the copy cannot
// perturb the parent, and many forks can resume concurrently from one
// warmed snapshot.
func (s *system) fork() (*system, error) {
	n := new(system)
	*n = *s
	n.opt = s.opt.clone()
	n.engine = s.engine.Clone()
	n.llc = s.llc.Clone()
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
	n.byLine = maps.Clone(s.byLine)
	n.byToken = maps.Clone(s.byToken)
	n.pfBuf = append([]uint64(nil), s.pfBuf...)
	n.mshrInUse = append([]int(nil), s.mshrInUse...)
	n.coreNextAt = append([]int64(nil), s.coreNextAt...)
	n.frozen = append([]bool(nil), s.frozen...)
	n.finishCycle = append([]int64(nil), s.finishCycle...)
	n.warmCycle = append([]int64(nil), s.warmCycle...)
	// Profiler state. The baselines and phase attribution are rebuilt by
	// armProfiler when the fork resumes, but the clone keeps the fork free
	// of aliasing in the window between fork and resume (the completeness
	// test walks that state). The timeline is per-run instrumentation and
	// is never inherited.
	n.mshrRejects = append([]uint64(nil), s.mshrRejects...)
	if s.prof != nil {
		n.prof = s.prof.Clone()
	}
	// Sampled-loop state: nil at fork time in practice (forks happen from
	// warmed snapshots, before runSampled arms it), but cloned like the
	// profiler state so the completeness walk holds for any system.
	if s.samp != nil {
		n.samp = s.samp.Clone()
	}
	n.tl = nil
	// Transient resume input, only ever set on a fresh fork by Warmed.Fork
	// (never on the template being forked): starts clear.
	n.primedMeta = nil
	return n, nil
}

// Warmed is a warmed, drained system snapshot that measured runs fork
// from. The snapshot itself is immutable after Warmup returns — forking
// only reads it — and the primed-metadata memo is mutex-guarded, so any
// number of Fork calls may run concurrently against one Warmed.
type Warmed struct {
	key string
	sys *system

	// primed memoizes the functionally-primed metadata cache per measured
	// configuration (canonical Config string). Priming is a pure function
	// of the immutable resident LLC and the configuration's metadata
	// geometry, so the first fork of each configuration computes it and
	// later forks adopt a clone — which turns the dominant per-fork cost
	// in mixed-fidelity sweeps (every grid point forks once per fidelity)
	// into a small memcpy.
	mu     sync.Mutex
	primed map[string]*cache.Cache
}

// Warmup runs the canonical warmup phase for opt and returns the snapshot
// every point with the same WarmupKey can fork from. opt is validated
// exactly as Run validates it.
func Warmup(opt Options) (*Warmed, error) {
	s, err := warmSystem(opt, false)
	if err != nil {
		return nil, err
	}
	return &Warmed{key: opt.WarmupKey(), sys: s}, nil
}

// Key returns the warmup group key this snapshot serves (Options.WarmupKey).
func (w *Warmed) Key() string { return w.key }

// Fork deep-copies the warmed snapshot and completes the measured region
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
	pk := opt.withDefaults().Config.String()
	s.primedMeta = w.lookupPrimed(pk)
	first := s.primedMeta == nil
	if err := s.resume(opt); err != nil {
		return Result{}, err
	}
	if first {
		// resume just primed a fresh metadata cache for this
		// configuration (or the configuration has none, and there is
		// nothing to memoize); nothing has run yet, so this is exactly
		// the state every later fork of the same configuration adopts.
		if mc := s.engine.MetaCache(); mc != nil {
			w.storePrimed(pk, mc.Clone())
		}
	}
	if err := s.runMeasuredRegion(); err != nil {
		return Result{}, err
	}
	return s.collect(), nil
}

// lookupPrimed returns the memoized primed metadata cache for a measured
// configuration, or nil on first use.
func (w *Warmed) lookupPrimed(k string) *cache.Cache {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.primed[k]
}

// storePrimed records a primed metadata cache for a measured configuration.
// Concurrent first forks may race to store: the values are identical (the
// priming pass is deterministic), and the first store wins.
func (w *Warmed) storePrimed(k string, c *cache.Cache) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.primed == nil {
		w.primed = make(map[string]*cache.Cache)
	}
	if _, ok := w.primed[k]; !ok {
		w.primed[k] = c
	}
}
