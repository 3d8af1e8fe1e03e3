package sim

import (
	"fmt"

	"secddr/internal/cpu"
	"secddr/internal/stats"
)

// Sampled simulation (Fidelity.Mode == FidelitySampled). The measured
// region alternates short detailed phases with long functional
// fast-forward spans, SMARTS-style:
//
//	[window][fast-forward][warmrun][window][fast-forward][warmrun]...
//
// Each *window* runs the ordinary event-driven loop and contributes one
// sample per metric; the first window opens directly on the warmed,
// drained snapshot, which is exactly the state an exact run starts
// measuring from. Each *fast-forward* drains the memory system, retires
// the rest of the period's instructions functionally — LLC, metadata
// cache, prefetcher, and dirty-victim state stay warm, no timing is
// modeled — and jumps both clocks by the span's estimated cycles (the
// per-core cycles-per-instruction observed in the window just closed),
// rebasing DRAM refresh deadlines past the jump. Each *warmrun* runs the
// detailed loop unmeasured to re-prime the state fast-forwarding cannot
// keep warm: controller queues, MSHR pressure, in-flight dependence
// chains, and open-row locality.
//
// Per-window samples aggregate into mean ± 95% CI (stats.Estimator);
// Result's point fields become those means and Result.Estimates reports
// the intervals. Validation against the exact loop is by *tolerance*, not
// identity: the property tests assert the sampled CI95 contains the
// exact-loop value, mirroring how the event-driven loop was validated
// against the tick loop by identity.

// minSampleWindows is the smallest number of windows the TargetCI early
// stop may conclude on: below it the t critical value is so wide that a
// lucky pair of samples could truncate the run on no real evidence.
const minSampleWindows = 8

// Estimate is one sampled metric's per-window aggregate: the sample mean,
// the half-width of the 95% confidence interval for it, and the number of
// measurement windows that contributed.
type Estimate struct {
	Mean    float64 `json:"mean"`
	CI95    float64 `json:"ci95"`
	Windows int     `json:"windows"`
}

// sampState is the sampled loop's cold state. Like the profiler's
// profState it lives behind one pointer so exact runs pay a single unused
// word. It is armed after resume, so a warmed template never holds one.
type sampState struct {
	windows bool // at least one full window recorded (gates collectSampled)
	clamped bool // some window had a zero-cycle per-core span

	winStart int64     // cpuNow when the current window opened
	winFin   []int64   // per-core cycle the current window's target was crossed
	cpi      []float64 // per-core cycles per instruction from the last window

	ipc, bw, mpki, lat, row, meta stats.Estimator
	perCore                       []stats.Estimator

	// agg sums the counter deltas of every recorded window, so ratio
	// metrics that need a single pooled denominator (miss rates) and the
	// extrapolated counter fields of Result have measured-window totals to
	// work from.
	agg tally
}

// funcPort adapts the system to cpu.FuncMemory for fast-forward phases:
// accesses apply architecturally to the LLC, the prefetcher, and (through
// Engine.FuncAccess) the metadata cache, with no MSHRs, queues, or timing.
type funcPort struct{ s *system }

var _ cpu.FuncMemory = funcPort{}

func (p funcPort) FuncLoad(addr uint64)  { p.s.funcAccess(addr, false) }
func (p funcPort) FuncStore(addr uint64) { p.s.funcAccess(addr, true) }

// funcAccess is the functional twin of corePort.Load/Store plus the fill
// that memTick would later perform: probe, install on miss (write-allocate,
// stores dirty the line), write dirty victims through the functional
// metadata walk, and train the prefetcher, installing its targets
// immediately. LLC and demand-miss counters advance so the cache's own
// statistics stay consistent; none of it contributes to window samples,
// which are deltas across detailed windows only.
func (s *system) funcAccess(addr uint64, write bool) {
	line := addr & _lineMask
	s.llcAccess++
	if s.llc.Access(line, write) {
		return
	}
	s.demandMiss++
	s.funcFill(line, write)
	s.pfBuf = s.pf.Observe(s.pfBuf[:0], line)
	for _, target := range s.pfBuf {
		t := target & _lineMask
		if s.llc.Probe(t) {
			continue
		}
		s.prefetches++
		s.funcFill(t, false)
	}
}

// funcFill installs a line functionally: the backing fetch's metadata walk
// and any dirty victim's write walk touch the metadata cache only.
func (s *system) funcFill(line uint64, dirty bool) {
	s.engine.FuncAccess(line, false)
	if victim, has := s.llc.Fill(line, dirty); has && victim.Dirty {
		s.engine.FuncAccess(victim.Addr, true)
	}
}

// runSampled executes the measured region in sampled fidelity. On return
// every core has retired the total target and the clocks stand at the
// run's estimated cycle extent.
func (s *system) runSampled() error {
	opt := s.opt
	fid := opt.Fidelity
	if err := fid.validate(); err != nil {
		return err
	}
	n := len(s.cores)
	samp := &sampState{
		winFin:  make([]int64, n),
		cpi:     make([]float64, n),
		perCore: make([]stats.Estimator, n),
	}
	for i := range samp.cpi {
		samp.cpi[i] = 1 // placeholder until the first window measures
	}
	s.samp = samp
	fp := funcPort{s: s}

	total := opt.WarmupInstr + opt.InstrPerCore
	capT := func(v uint64) uint64 {
		if v > total {
			return total
		}
		return v
	}
	allDone := func() bool {
		for _, c := range s.cores {
			if c.Retired < total {
				return false
			}
		}
		return true
	}

	target := make([]uint64, n)
	preRet := make([]uint64, n)
	// next plans each core's next window start. The first period warms
	// before its window like every other: the resumed snapshot is drained,
	// and a window opened straight on it would overweight that transient
	// (one sample of few) relative to an exact run (a sliver of one long
	// region).
	next := make([]uint64, n)
	for i, c := range s.cores {
		next[i] = capT(c.Retired + fid.WarmrunInstr)
	}
	for !allDone() {
		// Warmrun: detailed, unmeasured, up to the planned window start —
		// re-primes queue, MSHR, and dependence-chain state the functional
		// span cannot keep warm, and lets the post-drain pressure
		// transient decay before sampling.
		copy(target, next)
		if err := s.runDetailedUntil(target, nil, total); err != nil {
			return err
		}
		if allDone() {
			break
		}

		// Measurement window: detailed, sampled. Cores free-run past their
		// own crossing until the last one crosses — freezing early
		// finishers would lift their contention off the stragglers' tails
		// and bias every sample high, most where bandwidth saturates.
		for i, c := range s.cores {
			preRet[i] = c.Retired
			target[i] = capT(c.Retired + fid.WindowInstr)
		}
		pre := s.tally()
		samp.winStart = s.cpuNow
		if err := s.runDetailedUntil(target, samp.winFin, total); err != nil {
			return err
		}
		s.recordWindow(pre, preRet, target)
		if allDone() {
			break
		}

		// Fast-forward: functional, to the period end minus the next
		// warmrun — or straight to the total target once the estimates
		// converged.
		converged := fid.TargetCI > 0 && samp.ipc.N() >= minSampleWindows &&
			samp.ipc.RelCI95() <= fid.TargetCI && samp.bw.RelCI95() <= fid.TargetCI
		needFF := false
		for i := range target {
			if converged {
				target[i] = total
				if target[i] > s.cores[i].Retired {
					needFF = true
				}
				continue
			}
			nw := preRet[i] + fid.PeriodInstr // nominal next window start
			if nw+fid.WindowInstr >= total {
				// Anchor the final window at the region end: the exact
				// loop's region average includes the finishing tail, where
				// cores freeze one by one and parallelism decays, so the
				// sample space must cover it too.
				nw = 0
				if total > fid.WindowInstr {
					nw = total - fid.WindowInstr
				}
			}
			if r := s.cores[i].Retired; nw < r {
				nw = r // squeezed schedule: window opens without a warmrun
			}
			next[i] = capT(nw)
			target[i] = 0 // fast-forward stops a warmrun short of the window
			if nw > fid.WarmrunInstr {
				target[i] = capT(nw - fid.WarmrunInstr)
			}
			if target[i] > s.cores[i].Retired {
				needFF = true
			}
		}
		if needFF {
			if err := s.drainMemory(); err != nil {
				return err
			}
			var jump int64
			for i, c := range s.cores {
				if target[i] <= c.Retired {
					continue
				}
				ff := target[i] - c.Retired
				c.FastForwardTo(target[i], fp)
				if j := int64(float64(ff)*samp.cpi[i] + 0.5); j > jump {
					jump = j
				}
			}
			if jump < 1 {
				jump = 1
			}
			s.jumpClocks(jump)
			if s.cpuNow > opt.MaxCycles {
				return fmt.Errorf("sim: %s/%v sampled run exceeded cycle cap %d (estimated)",
					opt.WorkloadName(), opt.Config.Security.Mode, opt.MaxCycles)
			}
		}
		if converged {
			// Convergence fast-forwarded to the total target; cores may sit
			// a retire-width short of it, so finish the remainder detailed.
			for i := range target {
				target[i] = total
			}
			if err := s.runDetailedUntil(target, nil, total); err != nil {
				return err
			}
			break
		}
	}
	for i := range s.cores {
		s.finishCycle[i] = s.cpuNow
	}
	return nil
}

// recordWindow turns the window just closed into one sample per metric.
// Per-core rates use each core's own crossing: target[i]−preRet[i]
// instructions over winFin[i]−winStart cycles (anything a core retires
// free-running past its crossing belongs to the loop, not the sample).
// Aggregate counter deltas span the whole loop and pair with the total
// retired delta, keeping ratio denominators consistent. The per-core
// cycles-per-instruction estimates always update (the next fast-forward's
// clock jump needs them), but a truncated end-of-run window — under half
// the nominal length — contributes no samples and nothing to agg: its
// ratios are computed over too few events to be one vote among equals.
func (s *system) recordWindow(pre tally, preRet, target []uint64) {
	samp := s.samp
	var winInstr uint64
	ipcTotal := 0.0
	clamped := false
	perCore := make([]float64, len(s.cores))
	for i := range s.cores {
		var ci uint64 // a core past the total target contributes nothing
		if target[i] > preRet[i] {
			ci = target[i] - preRet[i]
		}
		winInstr += ci
		w := samp.winFin[i] - samp.winStart
		if w < 1 {
			w = 1
			clamped = true
		}
		if ci > 0 {
			samp.cpi[i] = float64(w) / float64(ci)
		}
		perCore[i] = float64(ci) / float64(w)
		ipcTotal += perCore[i]
	}
	if winInstr*2 < s.opt.Fidelity.WindowInstr*uint64(len(s.cores)) {
		return
	}
	samp.windows = true
	if clamped {
		samp.clamped = true
	}
	samp.ipc.Add(ipcTotal)
	for i := range perCore {
		samp.perCore[i].Add(perCore[i])
	}
	d := s.tally().sub(pre)
	if v, ok := d.bandwidthGBs(s.opt.Config.DRAM.ClockMHz); ok {
		samp.bw.Add(v)
	}
	if v, ok := d.mpki(); ok {
		samp.mpki.Add(v)
	}
	if v, ok := d.avgReadLatency(); ok {
		samp.lat.Add(v)
	}
	if v, ok := d.rowHitRate(); ok {
		samp.row.Add(v)
	}
	if v, ok := d.metaMissRate(); ok {
		samp.meta.Add(v)
	}
	samp.agg = samp.agg.add(d)
}

// runDetailedUntil runs the detailed loop until every core has retired at
// least target[i] instructions. Cores that cross their phase target keep
// running until the last one crosses: freezing early finishers would lift
// their contention off the stragglers' tails and bias samples high, most
// visibly where bandwidth saturates. Only cores that reach the run's total
// target freeze (the exact loop's end-of-run semantics; frozen cores keep
// receiving completions — see the frozen field's invariant). When fin is
// non-nil it records each core's crossing cycle with the same cpuNow+1
// convention runMeasured uses for finish cycles.
func (s *system) runDetailedUntil(target []uint64, fin []int64, total uint64) error {
	return s.advance(stint{goal: target, freeze: total, crossed: fin, what: "sampled run"})
}

// drainMemory freezes every core and ticks the memory domain until
// everything except queued writes has drained, so a fast-forward's clock
// jump never strands in-flight timing state. Queued writes deliberately
// survive the jump: they are jump-safe (Controller.ReadsIdle), and
// flushing them would restart every period's write queue from empty,
// synchronizing the high-watermark drain burst with the next measurement
// window and biasing its bandwidth sample high.
func (s *system) drainMemory() error {
	return s.advance(stint{
		settled: func() bool { return len(s.byLine) == 0 && s.engine.IdleExceptWrites() },
		what:    "sampled run (draining)",
	})
}

// jumpClocks advances both clock domains by jump CPU cycles with the exact
// arithmetic the tick loop performs, then rebases every channel's refresh
// deadlines past the jump (the skipped span's refreshes are deemed done).
func (s *system) jumpClocks(jump int64) {
	if jump <= 0 {
		return
	}
	s.skip(jump)
	for _, ctl := range s.engine.Controllers() {
		ctl.Channel().SkipRefreshTo(s.memNow)
	}
	s.memEventStale = true
}

// collectSampled assembles a sampled run's Result: point fields are the
// per-window sample means, counter fields are measured-window totals
// extrapolated to the full region, and Estimates carries the intervals.
func (s *system) collectSampled() Result {
	samp := s.samp
	r := Result{
		Workload:   s.opt.WorkloadName(),
		Mode:       s.opt.Config.Security.Mode,
		Cycles:     s.cpuNow,
		IPCClamped: samp.clamped,
	}
	for i := range s.cores {
		r.PerCoreIPC = append(r.PerCoreIPC, samp.perCore[i].Mean())
	}
	r.IPC = samp.ipc.Mean()
	r.Instructions = s.tally().instr - s.base.instr
	r.LLCMPKI = samp.mpki.Mean()
	agg := samp.agg
	r.LLCMissRate, _ = agg.llcMissRate()
	r.MetaMissRate = samp.meta.Mean()
	r.AvgReadLatency = samp.lat.Mean()
	r.RowHitRate = samp.row.Mean()
	r.BandwidthGBs = samp.bw.Mean()
	if agg.instr > 0 {
		scale := float64(r.Instructions) / float64(agg.instr)
		round := func(v uint64) uint64 { return uint64(float64(v)*scale + 0.5) }
		r.MetaAccesses = round(agg.metaAcc)
		r.MetaMemReads = round(agg.metaReads)
		r.DRAMReads = round(agg.numRD)
		r.DRAMWrites = round(agg.numWR)
		r.PrefetchesSent = round(agg.prefetches)
		r.WritebacksToMem = round(agg.writesEnq)
	}
	r.Profile = s.profile()
	r.Estimates = make(map[string]Estimate)
	add := func(name string, e *stats.Estimator) {
		if e.N() > 0 {
			r.Estimates[name] = Estimate{Mean: e.Mean(), CI95: e.CI95(), Windows: e.N()}
		}
	}
	add("ipc", &samp.ipc)
	add("bandwidth_gbs", &samp.bw)
	add("llc_mpki", &samp.mpki)
	add("avg_read_latency", &samp.lat)
	add("row_hit_rate", &samp.row)
	add("meta_miss_rate", &samp.meta)
	return r
}
