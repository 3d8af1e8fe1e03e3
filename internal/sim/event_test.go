package sim

import (
	"reflect"
	"testing"

	"secddr/internal/config"
	"secddr/internal/trace"
)

// TestEventDrivenMatchesTickLoop is the safety property behind the
// event-driven clock advance: for every mode x workload (x channel count)
// the fast-forwarding loop must produce a Result identical to the
// cycle-by-cycle reference loop, because it only skips cycles it can prove
// are no-ops.
func TestEventDrivenMatchesTickLoop(t *testing.T) {
	modes := []config.Mode{
		config.ModeUnprotected,
		config.ModeEncryptOnlyCTR,
		config.ModeSecDDRCTR,
		config.ModeSecDDRXTS,
		config.ModeIntegrityTree,
		config.ModeInvisiMem,
	}
	workloads := []string{"mcf", "lbm", "pr", "gcc"}
	for _, mode := range modes {
		for _, name := range workloads {
			mode, name := mode, name
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				p, ok := trace.ByName(name)
				if !ok {
					t.Fatalf("unknown workload %s", name)
				}
				opt := Options{
					Config:       config.Table1(mode),
					Workload:     p,
					InstrPerCore: 30_000,
					WarmupInstr:  10_000,
					Seed:         42,
				}
				requireIdenticalRuns(t, opt)
			})
		}
	}
}

// TestEventDrivenMatchesTickLoopSingleCore extends the identity property
// to single-core configurations — the purest stall-heavy regime, where the
// fast-forward path covers most of the run (and where the benchmarks
// measure the speedup).
func TestEventDrivenMatchesTickLoopSingleCore(t *testing.T) {
	for _, mode := range []config.Mode{
		config.ModeUnprotected,
		config.ModeSecDDRXTS,
		config.ModeIntegrityTree,
	} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			p, ok := trace.ByName("mcf")
			if !ok {
				t.Fatal("unknown workload mcf")
			}
			cfg := config.Table1(mode)
			cfg.Core.NumCores = 1
			opt := Options{
				Config:       cfg,
				Workload:     p,
				InstrPerCore: 60_000,
				WarmupInstr:  20_000,
				Seed:         42,
			}
			requireIdenticalRuns(t, opt)
		})
	}
}

// TestEventDrivenMatchesTickLoopMultiChannel extends the identity property
// to multi-channel configurations, where one controller per channel feeds
// the same next-event plumbing.
func TestEventDrivenMatchesTickLoopMultiChannel(t *testing.T) {
	for _, channels := range []int{2, 4} {
		channels := channels
		t.Run(string(rune('0'+channels))+"ch", func(t *testing.T) {
			t.Parallel()
			p, ok := trace.ByName("pr")
			if !ok {
				t.Fatal("unknown workload pr")
			}
			cfg := config.Table1(config.ModeSecDDRCTR)
			cfg.DRAM.Channels = channels
			cfg.Normalize()
			opt := Options{
				Config:       cfg,
				Workload:     p,
				InstrPerCore: 30_000,
				WarmupInstr:  10_000,
				Seed:         42,
			}
			requireIdenticalRuns(t, opt)
		})
	}
}

// TestEventDrivenMatchesTickLoopSampled extends the identity property to
// the sampled driver: its warmruns, windows, and pre-fast-forward drains
// run the same clock loop, so the two loop flavours must agree there too —
// window samples, estimates, and the fast-forward clock jumps included.
func TestEventDrivenMatchesTickLoopSampled(t *testing.T) {
	for _, mode := range []config.Mode{
		config.ModeUnprotected,
		config.ModeSecDDRCTR,
		config.ModeIntegrityTree,
	} {
		for _, name := range []string{"mcf", "lbm", "pr"} {
			mode, name := mode, name
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				p, ok := trace.ByName(name)
				if !ok {
					t.Fatalf("unknown workload %s", name)
				}
				opt := Options{
					Config:       config.Table1(mode),
					Workload:     p,
					InstrPerCore: 40_000,
					WarmupInstr:  20_000,
					Seed:         42,
					Fidelity:     testFidelity(),
				}
				event, err := Run(opt)
				if err != nil {
					t.Fatal(err)
				}
				tick, err := runTickLoop(opt)
				if err != nil {
					t.Fatal(err)
				}
				if len(event.Estimates) == 0 {
					t.Fatal("sampled run recorded no measurement windows")
				}
				if !reflect.DeepEqual(event, tick) {
					t.Errorf("event-driven Result diverges from tick loop:\nevent: %+v\ntick:  %+v", event, tick)
				}
			})
		}
	}
}

// TestEventDrivenActuallySkips guards the fast-forward path against
// silently regressing to "never skip": the identity property above would
// still pass, but the speedup would be gone.
func TestEventDrivenActuallySkips(t *testing.T) {
	p, ok := trace.ByName("mcf")
	if !ok {
		t.Fatal("unknown workload mcf")
	}
	opt := Options{
		Config:       config.Table1(config.ModeIntegrityTree),
		Workload:     p,
		InstrPerCore: 30_000,
		WarmupInstr:  10_000,
		Seed:         42,
	}
	s, err := runTraced(opt, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.skipEvents == 0 {
		t.Fatal("event-driven run took no fast-forward jumps")
	}
	if frac := float64(s.skipCycles) / float64(s.cpuNow); frac < 0.2 {
		t.Errorf("fast-forwarding covered only %.1f%% of %d cycles on a stall-heavy run",
			frac*100, s.cpuNow)
	}
	ref, err := runTraced(opt, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.skipEvents != 0 || ref.skipCycles != 0 {
		t.Errorf("reference tick loop fast-forwarded (%d jumps, %d cycles)",
			ref.skipEvents, ref.skipCycles)
	}
}

func requireIdenticalRuns(t *testing.T, opt Options) {
	t.Helper()
	event, errE := Run(opt)
	tick, errT := runTickLoop(opt)
	if (errE == nil) != (errT == nil) {
		t.Fatalf("error mismatch: event=%v tick=%v", errE, errT)
	}
	if errE != nil {
		return // both failed identically (e.g. cycle cap); nothing to compare
	}
	if !reflect.DeepEqual(event, tick) {
		t.Errorf("event-driven Result diverges from tick loop:\nevent: %+v\ntick:  %+v", event, tick)
	}
}
