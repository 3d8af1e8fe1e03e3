// Package sim wires the full simulated system of Table I: four trace-driven
// out-of-order cores sharing an LLC with a stream prefetcher, a security
// engine (the mode under evaluation), and one DDR4 channel behind a
// FR-FCFS memory controller. It runs the CPU and memory clock domains at
// their true ratio and reports the figures' metrics (per-core and total
// IPC, LLC MPKI, metadata-cache behaviour, DRAM statistics).
package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"secddr/internal/cache"
	"secddr/internal/config"
	"secddr/internal/cpu"
	"secddr/internal/obs"
	"secddr/internal/scenario"
	"secddr/internal/secmem"
	"secddr/internal/trace"
)

// Options configures one simulation run.
type Options struct {
	Config   config.Config
	Workload trace.Profile
	// Scenario, when non-zero, replaces Workload with a multi-core,
	// phase-structured workload (see internal/scenario): each core runs
	// its script's phase schedule instead of one stationary profile. The
	// scenario renders into Summary via its canonical Stringer, so it is
	// part of the digest; Workload must be left zero when Scenario is set.
	Scenario     scenario.Scenario
	InstrPerCore uint64 // measured retirement target per core
	WarmupInstr  uint64 // per-core instructions before measurement starts
	Seed         uint64
	MSHRsPerCore int   // outstanding LLC misses per core (default 16)
	MaxCycles    int64 // safety cap on CPU cycles (default 400x instr target)
	// Fidelity selects exact (default) or sampled execution of the
	// measured region (see fidelity.go). It is canonical — part of
	// Summary/Digest — so sampled and exact runs of the same point cache
	// separately. It is deliberately excluded from WarmupKey: warmup always
	// runs the detailed loop, so sampled runs fork from the same warmed
	// snapshots exact runs do.
	Fidelity Fidelity
}

// WorkloadName names what the run executes: the scenario name for
// scenario runs, the profile name otherwise. Result.Workload and the
// harness's outcome labels use it.
func (o Options) WorkloadName() string {
	if !o.Scenario.IsZero() {
		return o.Scenario.Name
	}
	return o.Workload.Name
}

// withDefaults returns the options with the derived defaults Run applies,
// so equivalent runs share one canonical form. The derived cycle cap covers
// warmup as well as the measured region: warmup instructions burn cycles
// like any others, so a cap derived from InstrPerCore alone would spuriously
// kill warmup-heavy runs. The same cap also covers sampled runs' functional
// fast-forward spans: fast-forwarding is wall-clock cheap but advances the
// simulated clock by the estimated cycles of the skipped span, and
// InstrPerCore counts fast-forwarded instructions too, so the derived cap
// bounds the full estimated-cycle extent of a sampled run — a cap derived
// from detailed windows alone would spuriously kill long sampled runs
// (TestSampledRunWithinDefaultMaxCycles pins this).
func (o Options) withDefaults() Options {
	if o.MSHRsPerCore == 0 {
		o.MSHRsPerCore = 16
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = int64(o.InstrPerCore+o.WarmupInstr) * 400
	}
	o.Fidelity = o.Fidelity.withDefaults()
	return o
}

// opSource is what a core's workload supplies: the op stream plus the
// hot-set visitor the functional warmup uses. Both the stationary
// trace.Generator and the phase-aware scenario.Source satisfy it.
type opSource interface {
	cpu.OpSource
	VisitHotPages(fn func(pageAddr uint64))
}

// newCoreSource builds core i's op source: a phase-aware scenario source
// when a Scenario is set, the single stationary profile otherwise. Every
// core keeps its established disjoint 2GB physical window and per-core
// seed derivation; saltExtra distinguishes the warmup stream from the
// measured one. The source's page tables come from tables, or are its
// own when tables is nil.
func (o Options) newCoreSource(i int, saltExtra uint64, tables *trace.Tables) (opSource, error) {
	base, seed := o.coreStream(i, saltExtra)
	if !o.Scenario.IsZero() {
		return scenario.NewSource(o.Scenario, i, base, seed, tables)
	}
	return tables.NewGenerator(o.Workload, base, seed)
}

// coreStream returns core i's physical base and the seed of its stream
// salted by saltExtra.
func (o Options) coreStream(i int, saltExtra uint64) (base, seed uint64) {
	return uint64(i) * (2 << 30), o.Seed + uint64(i)*0x1234567 + saltExtra
}

// warmSalt seeds each core's warm-fill stream apart from its measured one.
const warmSalt = 0x9e3779b9

// warmFill hands fn the first n ops of core i's warm-fill stream, the
// op source newCoreSource(i, warmSalt, nil) would build. Nothing reads
// its page tables after the fill, so none joins a shared set. A
// stationary profile's stream shuffles its table into buf, which the
// caller reuses core to core (trace.RunOps), and warmFill returns buf for
// the next core. A scenario source shuffles a table of its own per phase
// generator: those tables are all live at once, so one buffer cannot hold
// them (no perfbench workload runs a scenario).
func (o Options) warmFill(i, n int, buf []uint32, fn func(cpu.Op)) ([]uint32, error) {
	base, seed := o.coreStream(i, warmSalt)
	if o.Scenario.IsZero() {
		return trace.RunOps(o.Workload, base, seed, n, buf, fn)
	}
	src, err := scenario.NewSource(o.Scenario, i, base, seed, nil)
	if err != nil {
		return buf, err
	}
	for range n {
		op, _ := src.Next()
		fn(op)
	}
	return buf, nil
}

// debugHook, when set by a test, observes the system after each simulated
// (non-skipped) iteration's memory ticks, before the core ticks.
var debugHook func(*system)

// simVersion tags Summary/Digest with the simulator's behavioral revision.
// Bump it whenever a model change alters results for unchanged Options, so
// harness checkpoints written by older binaries are invalidated instead of
// silently serving stale numbers.
//
// v2: warmup runs under the canonical warmup configuration (fork-after-
// warmup), cores freeze individually at their warmup target, and the
// metadata cache is functionally primed from the resident LLC at the start
// of the measured region.
//
// v3: Options grows the canonical Fidelity block (exact vs sampled
// execution of the measured region). Exact-mode results are unchanged, but
// the block renders into every Summary, so all digests move once and
// cached sweeps re-execute one time.
const simVersion = 3

// Summary returns a canonical one-line description of everything that
// determines this run's result. Two Options with equal summaries produce
// identical Results: the simulator is deterministic, and Options holds only
// value types, so the rendering is stable across processes. The warmup key
// is folded in explicitly: the snapshot a run resumes from is identified by
// it, so any change to what a warmed snapshot contains shows up in every
// dependent digest (see WarmupKey).
func (o Options) Summary() string {
	return fmt.Sprintf("sim-v%d warmup[%s] %+v", simVersion, o.WarmupKey()[:16], o.withDefaults())
}

// Digest returns a stable hex key for the run (SHA-256 of Summary). The
// harness uses it to cache results and skip already-computed sweep points.
func (o Options) Digest() string {
	h := sha256.Sum256([]byte(o.Summary()))
	return hex.EncodeToString(h[:])
}

// Result carries the metrics the paper's figures report.
type Result struct {
	Workload     string
	Mode         config.Mode
	IPC          float64 // total IPC (sum of per-core IPC, as in Fig. 6)
	PerCoreIPC   []float64
	Instructions uint64
	Cycles       int64 // CPU cycles until the last core finished

	LLCMPKI        float64 // demand misses per kilo-instruction
	LLCMissRate    float64
	MetaMissRate   float64 // metadata cache (Fig. 7)
	MetaAccesses   uint64
	MetaMemReads   uint64  // metadata fetches that reached DRAM
	AvgReadLatency float64 // memory cycles, controller enqueue to data
	RowHitRate     float64
	DRAMReads      uint64
	DRAMWrites     uint64
	BandwidthGBs   float64 // average data-bus bandwidth
	// PrefetchesSent is inconsistent across fidelities. Exact runs report
	// every prefetch since cycle 0, warmup included, while sampled runs
	// extrapolate the measured windows' prefetches like the other counter
	// fields (at QuickScale, seed 42, secddr+ctr, lbm reports 11629 against
	// 7811 in the measured region). Fixing it changes exact result bytes,
	// so it waits for a benchmark reference re-record.
	PrefetchesSent  uint64
	WritebacksToMem uint64

	// Estimates carries per-metric mean ± 95% CI for sampled runs — one
	// entry per metric with at least one measurement window ("ipc",
	// "bandwidth_gbs", "llc_mpki", "avg_read_latency", "row_hit_rate",
	// "meta_miss_rate"). Exact runs leave it nil, and omitempty keeps
	// their JSON byte-identical to the pre-fidelity encoding (golden test
	// in result_json_test.go), so existing stores and diffs don't churn.
	Estimates map[string]Estimate `json:"estimates,omitempty"`

	// IPCClamped records that at least one core crossed warmup and its
	// retirement target in the same cycle, leaving a zero-cycle measurement
	// window; its per-core IPC was clamped to a one-cycle window instead of
	// the +Inf that would make the whole Result unmarshalable (encoding/json
	// rejects infinities, silently breaking harness checkpoints).
	IPCClamped bool

	// Profile is the cycle-attribution profiler's measured-region counters
	// (see profile.go and DESIGN.md "Observability"): per-core stall-reason
	// cycles, per-channel command/bank-utilization counts, crypto-engine
	// shadow, and per-phase cycles for scenario runs. Diagnostic and
	// non-canonical — Result is never hashed, so Profile stays out of
	// Summary/Digest/WarmupKey — but loop- and fork-invariant: the
	// event-driven loop, the reference tick loop, and a forked run all
	// produce the identical map.
	Profile map[string]uint64 `json:"profile,omitempty"`
}

// mshrEntry tracks one outstanding LLC line fill. Entries live in the
// system's fill slab (system.mshrs); a reused slot keeps its waiters
// backing array, so merging loads into fills allocates nothing in steady
// state.
type mshrEntry struct {
	lineAddr    uint64
	waiters     []waiter
	core        int // demanding core (for MSHR accounting)
	dirtyOnFill bool
	prefetch    bool
}

// waiter is a load merged into a fill: the core and the ROB slot it
// issued the load from, which CompleteLoad indexes directly.
type waiter struct {
	core int
	slot int
}

type system struct {
	opt    Options
	engine *secmem.Engine
	llc    *cache.Cache
	pf     *cache.StreamPrefetcher
	cores  []*cpu.Core

	memNow     int64
	cpuNow     int64
	memAcc     int
	mshrs      []mshrEntry      // fill slab, indexed by byLine and engine read tags
	freeMSHRs  []int32          // free mshrs slots
	byLine     map[uint64]int32 // pending fills by line address
	pfBuf      []uint64         // prefetch targets, reused per Observe
	mshrInUse  []int
	outstandPf int

	// memEventAt caches engine.NextEvent: the bound stays valid until the
	// predicted cycle executes (memNow catches up) or new work enters the
	// engine (memEventStale, set by every StartRead/StartWrite). The cache
	// turns the per-cycle cost of the idle check from a queue scan into a
	// comparison, which is what makes event-driven advance a net win even
	// when the memory system is busy.
	memEventAt    int64
	memEventStale bool
	eventDriven   bool // false: reference cycle-by-cycle tick loop

	// coreNextAt caches each core's NextEvent (an absolute CPU cycle):
	// a core's bound stays valid until the core itself ticks or an
	// asynchronous CompleteLoad lands (which zeroes the entry). Stalled
	// cores therefore cost one comparison per iteration instead of a ROB
	// inspection. Event-driven mode only.
	coreNextAt []int64

	skipEvents int64 // fast-forward jumps taken (diagnostics)
	skipCycles int64 // CPU cycles skipped by fast-forwarding (diagnostics)

	// frozen marks cores that reached the current stint's freeze threshold
	// and stopped ticking (see advance): the warmup target during warmup,
	// the run's total target afterwards, every core during a sampled drain.
	// It is distinct from finishCycle on purpose: completions must keep
	// flowing to frozen cores while the memory system drains (memTick
	// delivers when finishCycle is zero), or the drain would deadlock on a
	// frozen core's outstanding loads.
	frozen []bool

	finishCycle []int64
	warmCycle   []int64
	demandMiss  uint64
	llcAccess   uint64
	prefetches  uint64
	base        tally // counters at the start of the measured region (resume)

	// Cycle-attribution profiler state (profile.go). mshrRejects counts
	// per-core structural-stall rejections and stays inline — it is
	// written on the MSHR-full fast path. The rest of the profiler's
	// state (measured-region baselines, scenario phase attribution, the
	// timeline's polling cursors) lives behind one pointer, armed at
	// resume: spelling those fields out inline grows system past its
	// allocation size class and measurably slows the measured loop
	// (BenchmarkQuickScaleEventDriven), while behind prof they cost the
	// hot struct a single word.
	mshrRejects []uint64
	prof        *profState

	// samp, when non-nil, is the sampled loop's cold state (sampled.go):
	// per-window estimators, the current window's boundaries, and the
	// cycles-per-instruction the fast-forward clock jumps extrapolate
	// from. Behind one pointer for the same reason prof is — exact runs
	// pay a single word. Armed by runSampled after resume.
	samp *sampState

	// tl, when non-nil, records a Perfetto run timeline (RunInstrumented).
	// Per-run instrumentation: a fork never inherits it.
	tl *obs.Timeline
}

// tally is the measurement-relevant counters at one instant, summed over
// every memory channel so single- and multi-channel configurations report
// through the same path. The difference of two tallies is a measured
// region's or a sampled window's counter delta, and the ratio methods below
// turn a delta into Result's metrics. All fields are scalars, so the
// baseline copied at resume and per-window tallies never alias live state.
type tally struct {
	instr                        uint64 // instructions retired, all cores
	demandMiss, llcAccess        uint64
	metaAcc, metaMiss, metaReads uint64
	readLatSum, readsDone        uint64
	writesEnq                    uint64
	numRD, numWR                 uint64
	rowHits, rowMisses, rowConfl uint64
	busBusy                      uint64
	prefetches                   uint64
	memCycles                    uint64 // memory clock
}

// tally reads the system's counters now.
func (s *system) tally() tally {
	t := tally{
		demandMiss: s.demandMiss,
		llcAccess:  s.llcAccess,
		metaReads:  s.engine.MetaReads,
		prefetches: s.prefetches,
		memCycles:  uint64(s.memNow),
	}
	for _, c := range s.cores {
		t.instr += c.Retired
	}
	if mc := s.engine.MetaCache(); mc != nil {
		t.metaAcc, t.metaMiss = mc.Accesses, mc.Misses
	}
	for _, ctl := range s.engine.Controllers() {
		ch := ctl.Channel()
		t.readLatSum += ctl.ReadLatencySum
		t.readsDone += ctl.ReadsCompleted
		t.writesEnq += ctl.WritesEnqueued
		t.numRD += ch.NumRD
		t.numWR += ch.NumWR
		t.rowHits += ch.RowHits
		t.rowMisses += ch.RowMisses
		t.rowConfl += ch.RowConflicts
		t.busBusy += ch.DataBusBusyCycles
	}
	return t
}

// zip combines two tallies field by field.
func (t tally) zip(o tally, f func(a, b uint64) uint64) tally {
	return tally{
		instr:      f(t.instr, o.instr),
		demandMiss: f(t.demandMiss, o.demandMiss),
		llcAccess:  f(t.llcAccess, o.llcAccess),
		metaAcc:    f(t.metaAcc, o.metaAcc),
		metaMiss:   f(t.metaMiss, o.metaMiss),
		metaReads:  f(t.metaReads, o.metaReads),
		readLatSum: f(t.readLatSum, o.readLatSum),
		readsDone:  f(t.readsDone, o.readsDone),
		writesEnq:  f(t.writesEnq, o.writesEnq),
		numRD:      f(t.numRD, o.numRD),
		numWR:      f(t.numWR, o.numWR),
		rowHits:    f(t.rowHits, o.rowHits),
		rowMisses:  f(t.rowMisses, o.rowMisses),
		rowConfl:   f(t.rowConfl, o.rowConfl),
		busBusy:    f(t.busBusy, o.busBusy),
		prefetches: f(t.prefetches, o.prefetches),
		memCycles:  f(t.memCycles, o.memCycles),
	}
}

// sub returns the delta t - o.
func (t tally) sub(o tally) tally { return t.zip(o, func(a, b uint64) uint64 { return a - b }) }

// add returns the sum t + o.
func (t tally) add(o tally) tally { return t.zip(o, func(a, b uint64) uint64 { return a + b }) }

// The ratio methods are the one definition of each derived metric over a
// tally delta. Each reports ok=false when its denominator is zero: a
// degenerate window (see IPCClamped) can leave zero instructions or
// accesses, and a NaN anywhere in Result breaks JSON encoding.

func ratio(num, den float64) (float64, bool) {
	if den == 0 {
		return 0, false
	}
	return num / den, true
}

// mpki is LLC demand misses per kilo-instruction.
func (d tally) mpki() (float64, bool) {
	return ratio(float64(d.demandMiss), float64(d.instr)/1000)
}

// llcMissRate is LLC demand misses per LLC access.
func (d tally) llcMissRate() (float64, bool) {
	return ratio(float64(d.demandMiss), float64(d.llcAccess))
}

// metaMissRate is the metadata cache's miss rate (Fig. 7).
func (d tally) metaMissRate() (float64, bool) {
	return ratio(float64(d.metaMiss), float64(d.metaAcc))
}

// avgReadLatency is memory cycles from controller enqueue to data.
func (d tally) avgReadLatency() (float64, bool) {
	return ratio(float64(d.readLatSum), float64(d.readsDone))
}

// rowHitRate is row hits per row-buffer outcome.
func (d tally) rowHitRate() (float64, bool) {
	return ratio(float64(d.rowHits), float64(d.rowHits+d.rowMisses+d.rowConfl))
}

// bandwidthGBs is the average data-bus bandwidth at memory clock memMHz:
// busy cycles x 2 beats x 8 bytes, summed over channels (each channel has
// its own data bus), over the elapsed memory time.
func (d tally) bandwidthGBs(memMHz int) (float64, bool) {
	seconds := float64(d.memCycles) / (float64(memMHz) * 1e6)
	bw, ok := ratio(float64(d.busBusy)*2*8, seconds)
	return bw / 1e9, ok
}

type corePort struct {
	s  *system
	id int
}

var _ cpu.Memory = (*corePort)(nil)

const _lineMask = ^uint64(63)

// Load implements cpu.Memory.
func (p *corePort) Load(addr uint64, now int64, slot int) cpu.LoadResult {
	s := p.s
	line := addr & _lineMask
	s.llcAccess++
	if s.llc.Access(line, false) {
		return cpu.LoadResult{
			Accepted: true,
			ReadyAt:  now + int64(s.opt.Config.LLC.HitLatency),
		}
	}
	s.demandMiss++
	// Merge into an existing fill.
	if i, ok := s.byLine[line]; ok {
		e := &s.mshrs[i]
		e.waiters = append(e.waiters, waiter{core: p.id, slot: slot})
		return cpu.LoadResult{Accepted: true, Async: true}
	}
	if s.mshrInUse[p.id] >= s.opt.MSHRsPerCore {
		s.mshrRejects[p.id]++
		return cpu.LoadResult{} // structural stall
	}
	s.trainPrefetcher(line)
	e := s.startFill(line, p.id, false, false)
	e.waiters = append(e.waiters, waiter{core: p.id, slot: slot})
	return cpu.LoadResult{Accepted: true, Async: true}
}

// Store implements cpu.Memory (write-allocate: a store miss fetches the
// line, then dirties it; the store itself never blocks retirement unless
// MSHRs are exhausted).
func (p *corePort) Store(addr uint64, now int64) bool {
	s := p.s
	line := addr & _lineMask
	s.llcAccess++
	if s.llc.Access(line, true) {
		return true
	}
	s.demandMiss++
	if i, ok := s.byLine[line]; ok {
		s.mshrs[i].dirtyOnFill = true
		return true
	}
	if s.mshrInUse[p.id] >= s.opt.MSHRsPerCore {
		s.mshrRejects[p.id]++
		return false
	}
	s.trainPrefetcher(line)
	s.startFill(line, p.id, true, false)
	return true
}

// startFill takes a fill slot for line, issues the engine read backing it,
// and returns the slot with no waiters. The pointer is valid until the
// next startFill, which may grow the slab.
func (s *system) startFill(line uint64, core int, dirty, prefetch bool) *mshrEntry {
	var i int32
	if n := len(s.freeMSHRs); n > 0 {
		i = s.freeMSHRs[n-1]
		s.freeMSHRs = s.freeMSHRs[:n-1]
	} else {
		i = int32(len(s.mshrs))
		s.mshrs = append(s.mshrs, mshrEntry{})
	}
	e := &s.mshrs[i]
	e.lineAddr, e.core, e.dirtyOnFill, e.prefetch = line, core, dirty, prefetch
	e.waiters = e.waiters[:0]
	s.byLine[line] = i
	s.engine.StartRead(line, s.memNow, uint64(i))
	s.memEventStale = true
	if prefetch {
		s.outstandPf++
		s.prefetches++
	} else {
		s.mshrInUse[core]++
	}
	return e
}

// trainPrefetcher observes a demand miss and launches prefetch fills.
func (s *system) trainPrefetcher(line uint64) {
	const maxOutstandingPf = 32
	s.pfBuf = s.pf.Observe(s.pfBuf[:0], line)
	for _, target := range s.pfBuf {
		t := target & _lineMask
		if s.outstandPf >= maxOutstandingPf {
			break
		}
		if s.llc.Probe(t) {
			continue
		}
		if _, pending := s.byLine[t]; pending {
			continue
		}
		s.startFill(t, 0, false, true)
	}
}

// memEventDue reports whether the engine could do any work at memory cycle
// m, refreshing the cached next-event bound when its anchor has been
// passed or new requests entered the engine since it was computed.
func (s *system) memEventDue(m int64) bool {
	if s.memEventStale || s.memEventAt < m {
		s.memEventAt = s.engine.NextEvent(m - 1) // earliest active cycle >= m
		s.memEventStale = false
	}
	return s.memEventAt <= m
}

// memTick advances the memory domain one cycle and routes completions.
// In event-driven mode, cycles on which the engine provably cannot do work
// advance the clock only: this is what removes the per-cycle FR-FCFS queue
// scans even when an active core prevents the whole-system fast-forward.
// The reference tick loop runs the engine unconditionally.
func (s *system) memTick() {
	s.memNow++
	if s.eventDriven && !s.memEventDue(s.memNow) {
		return
	}
	for _, done := range s.engine.Tick(s.memNow) {
		i := int32(done.Token) // the fill slot startFill tagged the read with
		e := &s.mshrs[i]
		delete(s.byLine, e.lineAddr)
		if e.prefetch {
			s.outstandPf--
		} else {
			s.mshrInUse[e.core]--
		}
		victim, has := s.llc.Fill(e.lineAddr, e.dirtyOnFill)
		if has && victim.Dirty {
			s.engine.StartWrite(victim.Addr, s.memNow)
			s.memEventStale = true
		}
		for _, w := range e.waiters {
			if s.finishCycle[w.core] == 0 {
				s.cores[w.core].CompleteLoad(w.slot, s.cpuNow)
				s.coreNextAt[w.core] = 0 // async wake: bound invalid
			}
		}
		s.freeMSHRs = append(s.freeMSHRs, i)
	}
	// Re-aggregating the engine bound is O(channels) now that controllers
	// maintain their own quiet spans, so just mark it stale.
	s.memEventStale = true
}

// idleCycles returns how many whole loop iterations (CPU cycles) can be
// skipped because no component would change state in any of them: every
// unfrozen core's next event lies beyond the skipped window, and none of
// the memory cycles the window contains can perform controller, channel, or
// engine work. Returns 0 when the current cycle must be simulated. The
// per-core goal/freeze bookkeeping in advance cannot fire inside a skipped
// window either: retirement counts are frozen while cores are inert, and
// both thresholds are checked in the same iteration a count crosses them.
func (s *system) idleCycles(cpuMHz, memMHz int) int64 {
	// Cores first: the check is O(1) per core, and in compute-heavy phases
	// some core is almost always active, short-circuiting before the more
	// expensive memory-side scan.
	minCore := cpu.EventNever
	for i, c := range s.cores {
		if s.frozen[i] {
			continue
		}
		t := s.coreNextAt[i]
		if t == 0 { // async wake or first look: inspect the core
			t = c.NextEvent(s.cpuNow - 1) // earliest active cycle >= cpuNow
			s.coreNextAt[i] = t
		}
		// Invariant: a nonzero cached bound is never below cpuNow — ticks
		// refresh it to cpuNow+1 and jumps never overshoot the minimum —
		// so a stale-but-reached bound needs no recomputation to conclude
		// "active now".
		if t <= s.cpuNow {
			return 0
		}
		if t < minCore {
			minCore = t
		}
	}
	jump := minCore - s.cpuNow
	if cap := s.opt.MaxCycles - s.cpuNow; jump > cap {
		// Jumping past the cap would exit the loop exactly as ticking
		// through these no-op cycles would: with the cycle-cap error.
		jump = cap
	}

	// Memory domain: this iteration's memory ticks cover cycles memNow+1
	// onward, so the first cycle with work bounds how many iterations may
	// be skipped. After j iterations the tick loop would have advanced the
	// memory clock by (memAcc + j*memMHz) / cpuMHz cycles; keep that short
	// of the next event. The cached bound is recomputed only once its
	// predicted cycle has executed or new requests entered the engine —
	// no-op ticks in between cannot move it.
	if s.memEventStale || s.memEventAt <= s.memNow {
		s.memEventAt = s.engine.NextEvent(s.memNow)
		s.memEventStale = false
	}
	dm := s.memEventAt - s.memNow // >= 1
	if dm > 1<<40 {
		dm = 1 << 40 // keep dm*cpuMHz well inside int64
	}
	if memJump := (dm*int64(cpuMHz) - int64(s.memAcc) - 1) / int64(memMHz); memJump < jump {
		jump = memJump
	}
	if jump < 0 {
		jump = 0
	}
	return jump
}

// stint describes one run of the clock loop (advance): how far each core
// must retire before the loop may stop, when a core stops ticking, and
// what else must hold at the stop. Every phase of a run — warmup, the
// exact measured region, the sampled warmruns and windows, and the
// pre-fast-forward drain — is a stint; they differ only in this data.
type stint struct {
	// goal is each core's retirement goal: the loop runs until every core
	// has retired at least goal[i] instructions. Nil means freeze for every
	// core.
	goal []uint64
	// freeze is the retirement count at which a core stops ticking. Frozen
	// cores keep receiving completions while finishCycle is zero (see the
	// frozen field).
	freeze uint64
	// crossed, when non-nil, records the cycle each core reached its goal:
	// cpuNow+1 for a crossing in the tick at cpuNow, or cpuNow for a core
	// already at its goal on entry.
	crossed []int64
	// settled, when non-nil, must also hold before the loop stops — a
	// memory-side fixpoint checked once every goal is reached.
	settled func() bool
	// what names the stint in the cycle-cap error.
	what string
}

// advance is the simulator's one clock loop. Each iteration either jumps
// both clock domains over a window idleCycles proves inert (event-driven
// mode only) or executes one CPU cycle: the memory ticks the clock ratio
// owes, then one tick of every unfrozen core. A core whose cached next
// event lies beyond this cycle cannot change state, so the event-driven
// loop skips its Tick; completions delivered by this iteration's memory
// ticks invalidate the cache, so an async wake is never missed. The
// reference loop ticks unconditionally. Retirement only changes in Tick,
// so the goal and freeze checks run right after it, at identical cycles in
// both loop flavours, and a crossing can never hide inside a jump.
func (s *system) advance(st stint) error {
	tickLoop := !s.eventDriven
	cpuMHz := s.opt.Config.Core.ClockMHz
	memMHz := s.opt.Config.DRAM.ClockMHz
	goal := st.goal
	if goal == nil {
		goal = make([]uint64, len(s.cores))
		for i := range goal {
			goal[i] = st.freeze
		}
	}
	short := 0
	for i, c := range s.cores {
		s.frozen[i] = c.Retired >= st.freeze
		if c.Retired < goal[i] {
			short++
		} else if st.crossed != nil {
			st.crossed[i] = s.cpuNow
		}
	}
	for short > 0 || (st.settled != nil && !st.settled()) {
		if s.cpuNow >= s.opt.MaxCycles {
			return fmt.Errorf("sim: %s/%v %s exceeded cycle cap %d (%d cores short of goal)",
				s.opt.WorkloadName(), s.opt.Config.Security.Mode, st.what, s.opt.MaxCycles, short)
		}
		if !tickLoop {
			if jump := s.idleCycles(cpuMHz, memMHz); jump > 0 {
				s.skip(jump)
				continue
			}
		}
		s.memAcc += memMHz
		for s.memAcc >= cpuMHz {
			s.memAcc -= cpuMHz
			s.memTick()
		}
		if debugHook != nil {
			debugHook(s)
		}
		for i, c := range s.cores {
			if s.frozen[i] || !(tickLoop || s.coreNextAt[i] <= s.cpuNow) {
				continue
			}
			before := c.Retired
			c.Tick(s.cpuNow)
			if !tickLoop {
				s.coreNextAt[i] = c.NextEvent(s.cpuNow)
			}
			if before < goal[i] && c.Retired >= goal[i] {
				short--
				if st.crossed != nil {
					st.crossed[i] = s.cpuNow + 1
				}
			}
			if c.Retired >= st.freeze {
				s.frozen[i] = true
			}
		}
		if s.tl != nil {
			s.pollTimeline()
		}
		s.cpuNow++
	}
	return nil
}

// skip advances both clock domains by jump CPU cycles with the exact
// arithmetic the tick loop would have performed over them.
func (s *system) skip(jump int64) {
	cpuMHz := int64(s.opt.Config.Core.ClockMHz)
	s.skipEvents++
	s.skipCycles += jump
	s.cpuNow += jump
	total := int64(s.memAcc) + jump*int64(s.opt.Config.DRAM.ClockMHz)
	s.memNow += total / cpuMHz
	s.memAcc = int(total % cpuMHz)
}

// Run executes one simulation and returns its metrics. The clock advance is
// event-driven: whenever every core and every memory-channel component is
// provably inert, both clock domains jump straight to the next cycle at
// which any of them can do work, instead of ticking one cycle at a time.
// The jump is taken only when all skipped cycles are no-ops, so Run is
// result-identical to the reference tick loop (runTickLoop) for every
// configuration — the property tests assert this across modes, workloads,
// and channel counts.
func Run(opt Options) (Result, error) { return run(opt, false, nil) }

// RunShared is Run with the measured streams' page tables taken from
// tables, which shuffles each one on first use and keeps it for later
// runs and warmups of the same table class. tables is not part of the
// point: the Result is byte-identical to Run(opt)'s.
func RunShared(opt Options, tables *trace.Tables) (Result, error) {
	s, err := warmSystem(opt, false, tables)
	if err != nil {
		return Result{}, err
	}
	if err := s.measure(opt, nil); err != nil {
		return Result{}, err
	}
	return s.collect(), nil
}

// runTickLoop executes the same simulation with the reference cycle-by-
// cycle loop. It exists so tests and benchmarks can compare the two
// advance strategies; production callers should use Run.
func runTickLoop(opt Options) (Result, error) { return run(opt, true, nil) }

func run(opt Options, tickLoop bool, tl *obs.Timeline) (Result, error) {
	s, err := runTraced(opt, tickLoop, tl)
	if err != nil {
		return Result{}, err
	}
	return s.collect(), nil
}

// runTraced executes the simulation — warmup, resume, measured region —
// recording into tl (nil: no timeline), and returns the finished system, so
// tests can inspect internals (e.g. fast-forward statistics) that Result
// does not carry. A cold run and a forked run execute exactly the same
// three phases; the only difference is that a fork copies the warmed
// system between the first two and resumes from the snapshot's engine.
// The timeline attaches between warmup and resume, so it covers the
// measured region of either fidelity and never reaches a warmed snapshot.
func runTraced(opt Options, tickLoop bool, tl *obs.Timeline) (*system, error) {
	s, err := warmSystem(opt, tickLoop, nil)
	if err != nil {
		return nil, err
	}
	return s, s.measure(opt, tl)
}

// measure resumes the system warmSystem returned under opt, in place,
// and runs its measured region, recording into tl (nil: no timeline).
func (s *system) measure(opt Options, tl *obs.Timeline) error {
	s.tl = tl
	s.mark("warmup-done")
	if err := s.resume(opt, s.engine, nil); err != nil {
		return err
	}
	s.mark("measured-start")
	if err := s.runMeasuredRegion(); err != nil {
		return err
	}
	s.mark("measured-end")
	return nil
}

// runMeasuredRegion dispatches the measured region to the driver the
// options' fidelity selects: the exact loop, or the interval-sampling loop
// (sampled.go). Both start from the identical resumed state.
func (s *system) runMeasuredRegion() error {
	if s.opt.Fidelity.Sampled() {
		return s.runSampled()
	}
	return s.runMeasured()
}

// warmSystem validates opt, builds the system under the canonical warmup
// configuration (warmupOptions), and runs the warmup phase to its drained
// fixpoint: every core frozen at its warmup target and the memory system
// fully idle. The returned system is the state a Warmed snapshot captures;
// it is a pure function of opt's WarmupKey. The measured streams' page
// tables come from tables, or are the streams' own when tables is nil;
// the system keeps no reference to the set.
func warmSystem(opt Options, tickLoop bool, tables *trace.Tables) (*system, error) {
	if opt.InstrPerCore == 0 {
		return nil, errors.New("sim: InstrPerCore must be positive")
	}
	opt = opt.withDefaults()
	if err := opt.Config.Validate(); err != nil {
		return nil, err
	}
	if err := opt.Fidelity.validate(); err != nil {
		return nil, err
	}
	if !opt.Scenario.IsZero() {
		if opt.Workload.Name != "" {
			return nil, fmt.Errorf("sim: Scenario %q and Workload %q are mutually exclusive", opt.Scenario.Name, opt.Workload.Name)
		}
		if err := opt.Scenario.Validate(opt.Config.Core.NumCores); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	warmupRuns.Add(1)
	wopt := warmupOptions(opt)

	engine, err := secmem.NewEngine(wopt.Config)
	if err != nil {
		return nil, err
	}
	engine.SetEventDriven(!tickLoop)
	llc, err := takeLLC().Reset(wopt.Config.LLC)
	if err != nil {
		return nil, err
	}
	s := &system{
		opt:         wopt,
		engine:      engine,
		llc:         llc,
		pf:          cache.NewStreamPrefetcher(wopt.Config.Prefetch),
		byLine:      make(map[uint64]int32),
		eventDriven: !tickLoop,
	}
	n := wopt.Config.Core.NumCores
	s.cores = make([]*cpu.Core, n)
	s.coreNextAt = make([]int64, n)
	s.mshrInUse = make([]int, n)
	s.mshrRejects = make([]uint64, n)
	s.finishCycle = make([]int64, n)
	s.warmCycle = make([]int64, n)
	s.frozen = make([]bool, n)
	share := wopt.Config.LLC.SizeBytes / wopt.Config.LLC.LineBytes / n
	fill := func(op cpu.Op) { s.llc.Fill(op.Addr&_lineMask, op.Store) }
	var warmTable []uint32 // the warm-fill streams' page table, core to core
	for i := 0; i < n; i++ {
		gen, err := wopt.newCoreSource(i, 0, tables)
		if err != nil {
			return nil, err
		}
		// Functional warmup, part 1: fill this core's share of the LLC with
		// a statistically equivalent address stream (different seed) so the
		// measured region starts from a full cache — evictions and dirty
		// writebacks flow from the first cycle, as in steady state.
		if warmTable, err = wopt.warmFill(i, share, warmTable, fill); err != nil {
			return nil, err
		}
		// Part 2: install the hot set (most recently used, so it survives).
		gen.VisitHotPages(func(page uint64) {
			for off := uint64(0); off < 4096; off += 64 {
				s.llc.Fill(page+off, false)
			}
		})
		s.cores[i] = cpu.NewCore(wopt.Config.Core, &corePort{s: s, id: i}, gen)
	}
	s.llc.Accesses, s.llc.Hits, s.llc.Misses, s.llc.Evictions, s.llc.Writebacks = 0, 0, 0, 0, 0

	// Timed warmup: each core freezes at the warmup target, and the loop
	// keeps ticking the memory domain after the last freeze until it drains.
	if err := s.advance(stint{freeze: wopt.WarmupInstr, settled: s.drained, what: "warmup"}); err != nil {
		return nil, err
	}
	return s, nil
}

// drained reports whether the memory side has reached its warmup fixpoint:
// no outstanding LLC fills and a fully idle engine (empty backlog, no
// in-flight channel requests, no undelivered completions).
func (s *system) drained() bool {
	return len(s.byLine) == 0 && s.engine.Idle()
}

// resume switches a warmed system to the measured configuration opt and
// opens the measurement window. The mode-specific security engine is built
// fresh — its queues are empty at the drained fixpoint by construction —
// with the DRAM channels' bank/timing/refresh state grafted from warm, the
// drained warmup engine: the system's own on a cold run, the snapshot's on
// a fork, only read either way. The metadata cache is functionally primed
// from the resident LLC, or, when primed is non-nil, overwritten with a
// copy of that pass's memoized output for this configuration. Everything
// here is a deterministic function of the warmed state plus opt, which is
// what makes a fork identical to a cold run.
func (s *system) resume(opt Options, warm *secmem.Engine, primed *cache.Cache) error {
	opt = opt.withDefaults()
	// Re-validated here (not only in warmSystem) because a fork resumes
	// under options the warmup never saw — fidelity differs freely within
	// one warmup group.
	if err := opt.Fidelity.validate(); err != nil {
		return err
	}
	engine, err := secmem.NewEngine(opt.Config)
	if err != nil {
		return err
	}
	engine.SetEventDriven(s.eventDriven)
	old := warm.Controllers()
	for i, ctl := range engine.Controllers() {
		ctl.AdoptChannel(old[i].Channel())
	}
	s.engine = engine
	s.opt = opt
	// A non-nil primed means the warmed snapshot already served this
	// measured configuration: the priming pass is a pure function of the
	// (immutable) resident LLC and the engine geometry, so its output was
	// memoized, and copying it into the engine's fresh metadata cache is
	// byte-identical to re-running the pass. The memo is keyed by metadata
	// layout, so the geometries match and the copy is in place.
	if primed == nil {
		engine.PrimeResident(s.llc)
	} else if mc := engine.MetaCache(); primed.Clone(mc) != mc {
		return errors.New("sim: resume: memoized metadata cache does not match the configuration's geometry")
	}
	s.memEventAt = 0
	s.memEventStale = true
	for i := range s.cores {
		s.coreNextAt[i] = 0
		s.frozen[i] = false
		s.warmCycle[i] = s.cpuNow
		s.finishCycle[i] = 0
	}
	s.base = s.tally()
	s.armProfiler()
	return nil
}

// runMeasured runs the measurement loop until every core reaches the total
// retirement target (warmup + measured instructions; warmup overshoot
// counts, as it always has). A core that a wide retire carried past the
// whole target during warmup is done at entry (zero-cycle window, see
// IPCClamped).
func (s *system) runMeasured() error {
	return s.advance(stint{
		freeze:  s.opt.WarmupInstr + s.opt.InstrPerCore,
		crossed: s.finishCycle,
		what:    "measured region",
	})
}

func (s *system) collect() Result {
	// A sampled run that recorded at least one full window reports
	// estimator means; a degenerate sampled run (e.g. warmup overshoot
	// consumed the whole measured region before a window could complete)
	// falls through to the exact path, which handles zero-width windows.
	if s.samp != nil && s.samp.windows {
		return s.collectSampled()
	}
	r := Result{
		Workload: s.opt.WorkloadName(),
		Mode:     s.opt.Config.Security.Mode,
		Cycles:   s.cpuNow,
	}
	for i := range s.cores {
		window := s.finishCycle[i] - s.warmCycle[i]
		if window < 1 {
			// Warmup and the retirement target crossed in the same cycle:
			// clamp to a one-cycle window (and flag it) rather than emit the
			// +Inf that encoding/json refuses to marshal.
			window = 1
			r.IPCClamped = true
		}
		ipc := float64(s.opt.InstrPerCore) / float64(window)
		r.PerCoreIPC = append(r.PerCoreIPC, ipc)
		r.IPC += ipc
	}
	d := s.tally().sub(s.base)
	r.Instructions = d.instr
	r.LLCMPKI, _ = d.mpki()
	r.LLCMissRate, _ = d.llcMissRate()
	r.MetaMissRate, _ = d.metaMissRate()
	r.MetaAccesses = d.metaAcc
	r.MetaMemReads = d.metaReads
	r.AvgReadLatency, _ = d.avgReadLatency()
	r.DRAMReads = d.numRD
	r.DRAMWrites = d.numWR
	r.RowHitRate, _ = d.rowHitRate()
	r.BandwidthGBs, _ = d.bandwidthGBs(s.opt.Config.DRAM.ClockMHz)
	// Counted from cycle 0, warmup included, unlike every other counter
	// field here (and unlike sampled runs, which extrapolate the measured
	// windows' prefetches); see Result.PrefetchesSent.
	r.PrefetchesSent = s.prefetches
	r.WritebacksToMem = d.writesEnq
	r.Profile = s.profile()
	return r
}
