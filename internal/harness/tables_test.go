package harness

import (
	"context"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"
	"weak"

	"secddr/internal/config"
	"secddr/internal/sim"
	"secddr/internal/trace"
)

// fig6Configs are the five configurations of the paper's Fig. 6.
func fig6Configs() []NamedConfig {
	var ncs []NamedConfig
	for _, m := range []config.Mode{
		config.ModeIntegrityTree, config.ModeSecDDRCTR, config.ModeEncryptOnlyCTR,
		config.ModeSecDDRXTS, config.ModeEncryptOnlyXTS,
	} {
		ncs = append(ncs, NamedConfig{Label: m.String(), Config: config.Table1(m)})
	}
	return ncs
}

func profiles(t *testing.T, names ...string) []trace.Profile {
	t.Helper()
	ps := make([]trace.Profile, len(names))
	for i, n := range names {
		p, ok := trace.ByName(n)
		if !ok {
			t.Fatalf("unknown workload %s", n)
		}
		ps[i] = p
	}
	return ps
}

// tableBuilds is the page tables s's sets have shuffled, let go or not.
func (s *sched) tableBuilds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.builds
	for _, ts := range s.sets {
		n += ts.tables.Builds()
	}
	return n
}

// runFixed runs jobs through the scheduler as RunContext does, with
// finish (nil: none) observing each point, and returns the scheduler.
func runFixed(t *testing.T, jobs []Job, workers int, finish func(s *sched, p point)) *sched {
	t.Helper()
	s := Campaign{Workers: workers}.sched(&progressTracker{})
	s.finish = func(p point, _ sim.Result, err error, _ bool) {
		if err != nil {
			t.Errorf("%s: %v", p.Key, err)
		}
		if finish != nil {
			finish(s, p)
		}
	}
	pts := make([]point, len(jobs))
	for i, j := range jobs {
		pts[i] = s.point(j, j.Opt.Digest())
	}
	s.run(context.Background(), pts, nil)
	return s
}

// TestSampledGridBuildsEachTableOnce: a sampled grid whose profiles
// interleave two footprints (256 MiB, 1.5 GiB, 256 MiB, 1.5 GiB) shuffles
// each measured page table once on two slots: classes × cores tables,
// with the collector running all the time, and no set is held after the
// sweep.
func TestSampledGridBuildsEachTableOnce(t *testing.T) {
	g := Grid{
		Workloads:    profiles(t, "perlbench", "mcf", "leela", "lbm"),
		Configs:      fig6Configs()[:2],
		InstrPerCore: 20_000,
		WarmupInstr:  5_000,
		Seed:         42,
		Fidelities:   []sim.Fidelity{{Mode: sim.FidelitySampled, WindowInstr: 1500, PeriodInstr: 8000, WarmrunInstr: 3000}},
	}
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	s := runFixed(t, g.Jobs(), 2, nil)
	const classes, cores = 2, 4
	if n := s.tableBuilds(); n != classes*cores {
		t.Errorf("sweep shuffled %d measured page tables, want %d (%d footprints × %d cores)", n, classes*cores, classes, cores)
	}
	if len(s.sets) != 0 {
		t.Errorf("%d table sets still held after the sweep", len(s.sets))
	}
}

// TestServeFig6BuildsEachTableOnce: the Fig. 6 grid fed through Serve in
// grid order, a lease window at a time, shuffles one table per footprint
// and core, the fewest any owner can: mcf, lbm and pr share the 1.5 GiB
// tables and omnetpp reads the 1 GiB ones. On one slot each group has
// retired, and is kept as the newest, when the next group's jobs arrive:
// the new group takes its class's tables before the kept one lets go.
func TestServeFig6BuildsEachTableOnce(t *testing.T) {
	g := Grid{
		Workloads:    profiles(t, "mcf", "lbm", "pr", "omnetpp"),
		Configs:      fig6Configs(),
		InstrPerCore: 5_000,
		WarmupInstr:  1_000,
		Seed:         42,
	}
	jobs := g.Jobs()
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		s := Campaign{Workers: workers}.sched(&progressTracker{})
		var mu sync.Mutex
		next, finished := 0, 0
		s.finish = func(p point, _ sim.Result, err error, _ bool) {
			if err != nil {
				t.Errorf("%s: %v", p.Key, err)
			}
			mu.Lock()
			defer mu.Unlock()
			if finished++; finished == len(jobs) {
				cancel()
			}
		}
		s.run(ctx, nil, func(ctx context.Context, limit int) []Job {
			mu.Lock()
			batch := jobs[next:min(len(jobs), next+limit)]
			next += len(batch)
			mu.Unlock()
			if len(batch) == 0 {
				<-ctx.Done()
			}
			return batch
		})
		cancel()
		if finished != len(jobs) {
			t.Fatalf("%d slots: %d of %d points finished", workers, finished, len(jobs))
		}
		const classes, cores = 2, 4
		if n := s.tableBuilds(); n != classes*cores {
			t.Errorf("%d slots: fed grid shuffled %d measured page tables, want %d (%d footprints × %d cores)",
				workers, n, classes*cores, classes, cores)
		}
	}
}

// TestTableSetReleasedAfterLastGroup: the scheduler holds a class's page
// tables while any of its groups is pending and lets go of them once the
// last one retires, so the collector can free them while the sweep goes
// on. With one slot and the grid mcf, omnetpp, lbm, the 1.5 GiB class
// (mcf, lbm) runs first, in grid order, and is let go before omnetpp's
// points run.
func TestTableSetReleasedAfterLastGroup(t *testing.T) {
	g := Grid{
		Workloads:    profiles(t, "mcf", "omnetpp", "lbm"),
		Configs:      fig6Configs()[:2],
		InstrPerCore: 5_000,
		WarmupInstr:  1_000,
		Seed:         42,
	}
	jobs := g.Jobs()
	big := classOf(point{Job: jobs[0]})
	var gone weak.Pointer[trace.Tables]
	var order []string
	runFixed(t, jobs, 1, func(s *sched, p point) {
		s.mu.Lock()
		defer s.mu.Unlock()
		name := p.Opt.WorkloadName()
		if n := len(order); n == 0 || order[n-1] != name {
			order = append(order, name)
		}
		ts, held := s.sets[big]
		switch {
		case name != "omnetpp" && !held:
			t.Errorf("%s: its class's tables were let go while it ran", p.Key)
		case name != "omnetpp":
			gone = weak.Make(ts.tables)
		case held:
			t.Errorf("%s: the 1.5 GiB tables are still held after their last group", p.Key)
		case len(s.sets) != 1:
			t.Errorf("%s: %d table sets held, want its own alone", p.Key, len(s.sets))
		}
	})
	if want := []string{"mcf", "lbm", "omnetpp"}; !slices.Equal(order, want) {
		t.Errorf("points ran in workload order %v, want %v", order, want)
	}
	for deadline := time.Now().Add(5 * time.Second); gone.Value() != nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the 1.5 GiB tables outlived their class's last group")
		}
		runtime.GC()
	}
}
