package sim

import (
	"fmt"

	"secddr/internal/dram"
	"secddr/internal/obs"
	"secddr/internal/scenario"
)

// Cycle-attribution profiler and run timelines. The profiler is always on:
// its counters are updated at architectural-change cycles only (retirement,
// MSHR rejection, DRAM command issue), which both loop flavours execute at
// identical cycles, so Result.Profile is loop-invariant and rides along at
// negligible cost. The timeline is opt-in per run (RunInstrumented) and is
// diagnostic only — it never feeds back into the simulation.
//
// Everything here is cycle-domain. Timestamps are simulated cycles
// converted with the configured clocks; nothing reads the host clock.

// RunInstrumented executes one simulation like Run while recording a
// Perfetto trace into tl (nil: none): warmup/measured markers, scenario
// phase boundaries, per-channel issue and refresh spans, and an
// MSHR-occupancy counter track. The timeline observes the run without
// perturbing it: the Result is byte-identical to Run(opt)'s, at either
// fidelity.
func RunInstrumented(opt Options, tl *obs.Timeline) (Result, error) {
	return run(opt, false, tl)
}

// mark records a run-phase marker on the timeline, if one is attached.
func (s *system) mark(name string) {
	if s.tl != nil {
		s.tl.Instant("run", name, s.cpuNow, 0)
	}
}

// profState is the profiler's cold state, reached from system through a
// single pointer: the measured-region baselines armProfiler captures, the
// scenario phase attribution, and pollTimeline's per-channel cursors. It
// is a side struct rather than inline fields because system is allocated
// on the measured loop's hot path — spelling these out inline pushes
// system into the next allocation size class, which shows up as a
// measurable slowdown on BenchmarkQuickScaleEventDriven
// (TestSystemSizeClass pins the class). It lives outside the measurement
// tally too because dram.Counters carries a slice and tally stays
// scalars-only.
type profState struct {
	// base* hold the values of counters that survive resume (core stall
	// attribution, MSHR rejections, adopted channel counters), captured
	// by armProfiler so Profile reports the measured region only.
	baseMemStall   []uint64
	baseStoreStall []uint64
	baseMshrRej    []uint64
	baseChan       []dram.Counters

	// Scenario phase attribution: active phase per core, the CPU cycle it
	// was entered, and accumulated cycles per (core, phase). Nil for
	// non-scenario runs.
	curPhase    []int
	phaseStart  []int64
	phaseCycles [][]uint64

	// pollTimeline's per-channel last-seen counter values. Nil unless the
	// run records a timeline.
	tlRD      []uint64
	tlWR      []uint64
	tlREF     []uint64
	tlShadow  []uint64
	tlPollMem int64
}

// Clone deep-copies the profiler state for a fork. The clonecheck
// analyzer holds it to the same completeness standard as system.fork.
func (p *profState) Clone() *profState {
	n := &profState{
		baseMemStall:   append([]uint64(nil), p.baseMemStall...),
		baseStoreStall: append([]uint64(nil), p.baseStoreStall...),
		baseMshrRej:    append([]uint64(nil), p.baseMshrRej...),
		curPhase:       append([]int(nil), p.curPhase...),
		phaseStart:     append([]int64(nil), p.phaseStart...),
		tlRD:           append([]uint64(nil), p.tlRD...),
		tlWR:           append([]uint64(nil), p.tlWR...),
		tlREF:          append([]uint64(nil), p.tlREF...),
		tlShadow:       append([]uint64(nil), p.tlShadow...),
		tlPollMem:      p.tlPollMem,
	}
	n.baseChan = make([]dram.Counters, len(p.baseChan))
	for i, c := range p.baseChan {
		n.baseChan[i] = c
		n.baseChan[i].BankCols = append([]uint64(nil), c.BankCols...)
	}
	n.phaseCycles = make([][]uint64, len(p.phaseCycles))
	for i, pc := range p.phaseCycles {
		n.phaseCycles[i] = append([]uint64(nil), pc...)
	}
	return n
}

// armProfiler opens the measured region for the profiler: it captures
// baselines for every counter that survives resume (core stall attribution,
// MSHR rejections, the adopted DRAM channel counters), initializes scenario
// phase attribution, and primes the timeline's polling state. It runs from
// resume on the cold and forked paths alike, which is what makes Profile
// fork-invariant.
func (s *system) armProfiler() {
	n := len(s.cores)
	p := &profState{
		baseMemStall:   make([]uint64, n),
		baseStoreStall: make([]uint64, n),
		baseMshrRej:    make([]uint64, n),
	}
	s.prof = p
	for i, c := range s.cores {
		p.baseMemStall[i] = c.MemStallCycles
		p.baseStoreStall[i] = c.StoreStallCycles
		p.baseMshrRej[i] = s.mshrRejects[i]
	}
	ctls := s.engine.Controllers()
	p.baseChan = make([]dram.Counters, len(ctls))
	for i, ctl := range ctls {
		p.baseChan[i] = ctl.Channel().Counters()
	}

	if !s.opt.Scenario.IsZero() {
		p.curPhase = make([]int, n)
		p.phaseStart = make([]int64, n)
		p.phaseCycles = make([][]uint64, n)
		for i, c := range s.cores {
			src, ok := c.Source().(*scenario.Source)
			if !ok {
				continue
			}
			p.phaseCycles[i] = make([]uint64, len(s.opt.Scenario.Script(i).Phases))
			p.curPhase[i] = src.Phase()
			p.phaseStart[i] = s.cpuNow
			core := i
			src.SetPhaseHook(func(old, next int) {
				// The hook fires inside the core's Tick, so cpuNow is the
				// cycle the boundary op was fetched at — an architectural
				// change both loop flavours execute. It closes over p, not
				// s.prof: re-arming replaces both pointer and hooks
				// together, so a stale hook can never write into a newer
				// profiler's state.
				p.phaseCycles[core][old] += uint64(s.cpuNow - p.phaseStart[core])
				p.phaseStart[core] = s.cpuNow
				p.curPhase[core] = next
				if s.tl != nil {
					s.tl.Instant("phase", fmt.Sprintf("core%d phase%d", core, next), s.cpuNow, core)
				}
			})
		}
	}

	if s.tl != nil {
		p.tlRD = make([]uint64, len(ctls))
		p.tlWR = make([]uint64, len(ctls))
		p.tlREF = make([]uint64, len(ctls))
		p.tlShadow = make([]uint64, len(ctls))
		for i, ctl := range ctls {
			ch := ctl.Channel()
			p.tlRD[i], p.tlWR[i] = ch.NumRD, ch.NumWR
			p.tlREF[i], p.tlShadow[i] = ch.NumREF, ch.RefreshShadowCycles
		}
		p.tlPollMem = s.memNow
	}
}

// pollTimeline emits timeline events covering the memory activity since
// the previous poll. It runs once per executed (non-skipped) iteration of
// the clock loop after resume: the timeline's resolution follows the
// event-driven loop's, which is exactly the set of cycles where anything
// happened.
func (s *system) pollTimeline() {
	p := s.prof
	cpuMHz := int64(s.opt.Config.Core.ClockMHz)
	memMHz := int64(s.opt.Config.DRAM.ClockMHz)
	toCPU := func(m int64) int64 { return m * cpuMHz / memMHz }
	for ci, ctl := range s.engine.Controllers() {
		ch := ctl.Channel()
		tid := 1000 + ci
		if d := (ch.NumRD - p.tlRD[ci]) + (ch.NumWR - p.tlWR[ci]); d > 0 {
			s.tl.Span("dram", fmt.Sprintf("ch%d issue", ci), toCPU(p.tlPollMem), toCPU(s.memNow), tid)
		}
		if nref := ch.NumREF - p.tlREF[ci]; nref > 0 {
			// Span length per REF is the tRFC the shadow counter recorded.
			per := (ch.RefreshShadowCycles - p.tlShadow[ci]) / nref
			s.tl.Span("dram", fmt.Sprintf("ch%d refresh", ci), toCPU(s.memNow), toCPU(s.memNow+int64(per)), tid)
		}
		p.tlRD[ci], p.tlWR[ci] = ch.NumRD, ch.NumWR
		p.tlREF[ci], p.tlShadow[ci] = ch.NumREF, ch.RefreshShadowCycles
	}
	p.tlPollMem = s.memNow
	total := 0
	for _, m := range s.mshrInUse {
		total += m
	}
	s.tl.Counter("mem", "mshr_occupancy", s.cpuNow, float64(total))
}

// profile builds Result.Profile, a flat map of the measured-region
// counter deltas. Returns nil when the profiler was never armed (a system
// that never passed through resume).
func (s *system) profile() map[string]uint64 {
	base := s.prof
	if base == nil || len(base.baseMemStall) != len(s.cores) {
		return nil
	}
	p := make(map[string]uint64)
	for i, c := range s.cores {
		mem := c.MemStallCycles - base.baseMemStall[i]
		st := c.StoreStallCycles - base.baseStoreStall[i]
		p[fmt.Sprintf("core%d/mem_stall_cycles", i)] = mem
		p[fmt.Sprintf("core%d/store_stall_cycles", i)] = st
		p[fmt.Sprintf("core%d/mshr_full_rejects", i)] = s.mshrRejects[i] - base.baseMshrRej[i]
		// Residual window time is frontend/compute. Saturating: an entry
		// that was already at the ROB head when the window opened carries
		// its pre-window head occupancy into the stall counters, which can
		// push mem+st past a short window.
		window := uint64(0)
		if w := s.finishCycle[i] - s.warmCycle[i]; w > 0 {
			window = uint64(w)
		}
		front := uint64(0)
		if window > mem+st {
			front = window - mem - st
		}
		p[fmt.Sprintf("core%d/frontend_cycles", i)] = front
	}
	for ci, ctl := range s.engine.Controllers() {
		d := ctl.Channel().Counters().Sub(base.baseChan[ci])
		pre := fmt.Sprintf("ch%d/", ci)
		p[pre+"activates"] = d.ACT
		p[pre+"precharges"] = d.PRE
		p[pre+"reads"] = d.RD
		p[pre+"writes"] = d.WR
		p[pre+"refreshes"] = d.REF
		p[pre+"row_hits"] = d.RowHits
		p[pre+"row_misses"] = d.RowMisses
		p[pre+"row_conflicts"] = d.RowConflicts
		p[pre+"bus_busy_cycles"] = d.BusBusyCycles
		p[pre+"refresh_shadow_cycles"] = d.RefreshShadowCycles
		for b, v := range d.BankCols {
			p[fmt.Sprintf("ch%d/bank%d/col_cmds", ci, b)] = v
		}
	}
	// The engine is built fresh at resume, so its counters need no baseline.
	p["engine/crypto_busy_cycles"] = s.engine.CryptoBusyCycles
	for i := range base.phaseCycles {
		if base.phaseCycles[i] == nil {
			continue
		}
		for ph, cyc := range base.phaseCycles[i] {
			v := cyc
			// Tail segment: the phase active when the core finished.
			if ph == base.curPhase[i] && s.finishCycle[i] > base.phaseStart[i] {
				v += uint64(s.finishCycle[i] - base.phaseStart[i])
			}
			p[fmt.Sprintf("core%d/phase%d/cycles", i, ph)] = v
		}
	}
	return p
}
