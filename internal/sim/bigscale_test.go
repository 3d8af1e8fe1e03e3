package sim

import (
	"testing"

	"secddr/internal/config"
	"secddr/internal/trace"
)

// TestLargeScaleIdentity runs the identity property at the harness's
// QuickScale instruction counts, where refresh sequences and write-drain
// episodes occur that the short property-grid runs never reach. Both
// historical event-loop bugs (a deferred drain-toggle and a one-cycle-late
// enqueue bound) only manifested at this scale.
func TestLargeScaleIdentity(t *testing.T) {
	for _, pt := range []struct {
		wl   string
		mode config.Mode
	}{
		{"lbm", config.ModeSecDDRCTR},    // write-heavy: drain hysteresis
		{"pr", config.ModeIntegrityTree}, // walk-heavy: backlog pressure
	} {
		pt := pt
		t.Run(pt.wl+"/"+pt.mode.String(), func(t *testing.T) {
			t.Parallel()
			p, ok := trace.ByName(pt.wl)
			if !ok {
				t.Fatalf("unknown workload %s", pt.wl)
			}
			opt := Options{
				Config:       config.Table1(pt.mode),
				Workload:     p,
				InstrPerCore: 120_000,
				WarmupInstr:  60_000,
				Seed:         42,
			}
			requireIdenticalRuns(t, opt)
		})
	}
}

// cycSnap is the per-cycle state signature TestPerCycleIdentity compares.
type cycSnap struct {
	cpu, mem                int64
	retired                 [8]uint64 // bounded copy; sum absorbs any extra cores
	rdEnq, wrEnq, rdC, wrC  uint64
	act, pre, rd, wr, ref   uint64
	rq, wq, bl              int
	draining                bool
	drains                  uint64
	metaAcc, metaMiss       uint64
	readsStarted, metaReads uint64
}

func snapOf(s *system) cycSnap {
	var sn cycSnap
	sn.cpu, sn.mem = s.cpuNow, s.memNow
	for i, c := range s.cores {
		// Fold any cores beyond the array into the last slot so a larger
		// NumCores config degrades to a coarser signature instead of
		// panicking.
		if i >= len(sn.retired) {
			i = len(sn.retired) - 1
		}
		sn.retired[i] += c.Retired
	}
	ctl := s.engine.Controllers()[0]
	ch := ctl.Channel()
	sn.rdEnq, sn.wrEnq, sn.rdC, sn.wrC = ctl.ReadsEnqueued, ctl.WritesEnqueued, ctl.ReadsCompleted, ctl.WritesCompleted
	sn.act, sn.pre, sn.rd, sn.wr, sn.ref = ch.NumACT, ch.NumPRE, ch.NumRD, ch.NumWR, ch.NumREF
	sn.rq, sn.wq, sn.bl = ctl.ReadQueueLen(), ctl.WriteQueueLen(), s.engine.BacklogLen()
	sn.draining, sn.drains = ctl.Draining(), ctl.DrainEpisodes
	if mc := s.engine.MetaCache(); mc != nil {
		sn.metaAcc, sn.metaMiss = mc.Accesses, mc.Misses
	}
	sn.readsStarted, sn.metaReads = s.engine.ReadsStarted, s.engine.MetaReads
	return sn
}

// TestPerCycleIdentity compares the event-driven run against the reference
// tick loop cycle by cycle (at the event loop's simulated cycles) and
// reports the FIRST divergent cycle with both state signatures — far more
// useful for debugging a broken next-event bound than an end-of-run Result
// mismatch. memctrl's Controller.DebugState can be added to cycSnap while
// localizing a new divergence.
func TestPerCycleIdentity(t *testing.T) {
	p, _ := trace.ByName("pr")
	opt := Options{
		Config:       config.Table1(config.ModeIntegrityTree),
		Workload:     p,
		InstrPerCore: 120_000,
		Seed:         42,
	}
	byCycle := map[int64]cycSnap{}
	debugHook = func(s *system) { byCycle[s.cpuNow] = snapOf(s) }
	if _, err := runTraced(opt, true, nil); err != nil {
		t.Fatal(err)
	}
	var firstBad int64 = -1
	var evBad, tkBad cycSnap
	debugHook = func(s *system) {
		if firstBad >= 0 {
			return
		}
		ev := snapOf(s)
		if tk, ok := byCycle[s.cpuNow]; ok && ev != tk {
			firstBad, evBad, tkBad = s.cpuNow, ev, tk
		}
	}
	if _, err := runTraced(opt, false, nil); err != nil {
		t.Fatal(err)
	}
	debugHook = nil
	if firstBad >= 0 {
		t.Errorf("first divergence at cpu cycle %d:\nevent: %+v\ntick:  %+v", firstBad, evBad, tkBad)
	}
}
