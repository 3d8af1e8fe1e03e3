package harness

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"secddr/internal/config"
	"secddr/internal/sim"
	"secddr/internal/trace"
)

// memStore is a minimal in-memory Store for resume tests.
type memStore struct {
	mu sync.Mutex
	m  map[string]sim.Result
}

func newMemStore() *memStore { return &memStore{m: map[string]sim.Result{}} }

func (s *memStore) Lookup(d string) (sim.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.m[d]
	return res, ok
}

func (s *memStore) Record(d string, res sim.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[d] = res
	return nil
}

// forkGrid is a 2-workload x 3-mode campaign: two snapshot groups of three
// points each, the smallest grid that exercises warmup sharing.
func forkGrid() Grid {
	mcf, _ := trace.ByName("mcf")
	lbm, _ := trace.ByName("lbm")
	return Grid{
		Workloads: []trace.Profile{mcf, lbm},
		Configs: []NamedConfig{
			{Label: "unprotected", Config: config.Table1(config.ModeUnprotected)},
			{Label: "secddr+xts", Config: config.Table1(config.ModeSecDDRXTS)},
			{Label: "secddr+ctr", Config: config.Table1(config.ModeSecDDRCTR)},
		},
		InstrPerCore: 5_000,
		WarmupInstr:  1_000,
		Seed:         42,
	}
}

// TestWarmupSharedPerGroup proves the headline economics: a W-workload x
// M-mode grid executes exactly W warmups, not W*M. The counter is
// process-global, so this test must not run concurrently with other
// simulating tests (package tests are serial by default; none here call
// t.Parallel).
func TestWarmupSharedPerGroup(t *testing.T) {
	jobs := forkGrid().Jobs()
	before := sim.WarmupRuns()
	outs, stats, err := Run(Campaign{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if delta := sim.WarmupRuns() - before; delta != 2 {
		t.Errorf("warmups = %d, want 2 (one per workload group)", delta)
	}
	if stats.Executed != 6 {
		t.Errorf("Executed = %d, want 6", stats.Executed)
	}
	if len(outs) != 6 {
		t.Fatalf("outcomes = %d, want 6", len(outs))
	}

	// Every forked result must match its cold run bit-for-bit.
	for _, o := range outs[:2] {
		var opt sim.Options
		for _, j := range jobs {
			if j.Key == o.Key {
				opt = j.Opt
			}
		}
		cold, err := sim.Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(o.Result, cold) {
			t.Errorf("%s: forked result differs from cold run", o.Key)
		}
	}
}

// TestForkResumeHalfCached resumes a campaign whose store already holds one
// whole snapshot group: only the missing group's warmup runs.
func TestForkResumeHalfCached(t *testing.T) {
	jobs := forkGrid().Jobs()
	store := newMemStore()

	// Pre-populate the store with the mcf half of the grid.
	if _, stats, err := Run(Campaign{Jobs: jobs[:3], Store: store}); err != nil {
		t.Fatal(err)
	} else if stats.Executed != 3 {
		t.Fatalf("pre-run Executed = %d, want 3", stats.Executed)
	}

	before := sim.WarmupRuns()
	_, stats, err := Run(Campaign{Jobs: jobs, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cached != 3 || stats.Executed != 3 {
		t.Errorf("stats = %+v, want Cached 3 / Executed 3", stats)
	}
	if delta := sim.WarmupRuns() - before; delta != 1 {
		t.Errorf("warmups on resume = %d, want 1 (mcf group fully cached)", delta)
	}
}

// TestForkedRunDeterministicOrder runs the same fresh grid twice and
// compares the emitted JSON byte-for-byte. Snapshot groups are formed from
// the deterministic dispatch order, never from map iteration, so two runs
// must execute, record, and emit identically.
func TestForkedRunDeterministicOrder(t *testing.T) {
	emit := func() []byte {
		outs, stats, err := Run(Campaign{Jobs: forkGrid().Jobs(), Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, outs, stats); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := emit(), emit()
	if !bytes.Equal(a, b) {
		t.Error("two identical forked campaigns emitted different JSON")
	}
}

// TestFig6GroupingByWarmupKey checks the grouping arithmetic on a
// figure-6-shaped grid (every built-in workload x 3 modes) without running
// anything: per seed and scale there are exactly as many snapshot groups —
// and hence warmups — as workloads.
func TestFig6GroupingByWarmupKey(t *testing.T) {
	g := Grid{
		Workloads: trace.Profiles(),
		Configs: []NamedConfig{
			{Label: "integrity-tree", Config: config.Table1(config.ModeIntegrityTree)},
			{Label: "secddr+ctr", Config: config.Table1(config.ModeSecDDRCTR)},
			{Label: "secddr+xts", Config: config.Table1(config.ModeSecDDRXTS)},
		},
		InstrPerCore: 120_000,
		WarmupInstr:  60_000,
		Seed:         42,
	}
	jobs := g.Jobs()
	keys := map[string][]string{}
	for _, j := range jobs {
		k := j.Opt.WarmupKey()
		keys[k] = append(keys[k], j.Key)
	}
	if len(keys) != len(g.Workloads) {
		t.Errorf("distinct warmup keys = %d, want %d (one per workload)", len(keys), len(g.Workloads))
	}
	for k, members := range keys {
		if len(members) != len(g.Configs) {
			t.Errorf("group %s has %d members %v, want %d", k[:16], len(members), members, len(g.Configs))
		}
	}
}

// TestProgressReporting drives the fork scheduler with a Progress callback
// and checks that the final snapshot matches Stats: every point reported,
// forks and warmups accounted, and the resolution event seen first.
func TestProgressReporting(t *testing.T) {
	var (
		mu     sync.Mutex
		events []Stats
	)
	_, stats, err := Run(Campaign{
		Jobs: forkGrid().Jobs(),
		Progress: func(p Stats) {
			mu.Lock()
			events = append(events, p)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	first, last := events[0], events[len(events)-1]
	if first.Total != 6 || first.Cached+first.Deduped != 0 || first.Executed != 0 {
		t.Errorf("resolution event = %+v", first)
	}
	if last != stats {
		t.Errorf("final event %+v disagrees with stats %+v", last, stats)
	}
	// Two 3-point groups: each warms once and forks all three members.
	if stats.Forked != 6 || stats.Warmups != 2 {
		t.Errorf("Forked/Warmups = %d/%d, want 6/2", stats.Forked, stats.Warmups)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Executed < events[i-1].Executed {
			t.Fatalf("Executed went backwards at event %d: %+v -> %+v", i, events[i-1], events[i])
		}
	}
}

// TestFidelityAxis covers the Grid fidelity axis end to end: key suffixing
// only when the axis has multiple entries, distinct digests per fidelity
// (so the cache never conflates a sampled row with an exact one), and one
// shared warmup serving both fidelities of a point (Fidelity is outside
// WarmupKey by design).
func TestFidelityAxis(t *testing.T) {
	mcf, _ := trace.ByName("mcf")
	g := Grid{
		Workloads: []trace.Profile{mcf},
		Configs: []NamedConfig{
			{Label: "secddr+ctr", Config: config.Table1(config.ModeSecDDRCTR)},
		},
		InstrPerCore: 40_000,
		WarmupInstr:  10_000,
		Seed:         42,
		Fidelities: []sim.Fidelity{
			{}, // exact
			{Mode: sim.FidelitySampled, WindowInstr: 1500, PeriodInstr: 8000, WarmrunInstr: 3000},
		},
	}
	jobs := g.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(jobs))
	}
	if jobs[0].Key != "mcf/secddr+ctr/exact" || jobs[1].Key != "mcf/secddr+ctr/sampled" {
		t.Fatalf("fidelity keys = %q, %q", jobs[0].Key, jobs[1].Key)
	}
	if jobs[0].Opt.Digest() == jobs[1].Opt.Digest() {
		t.Fatal("exact and sampled points share a digest")
	}
	if jobs[0].Opt.WarmupKey() != jobs[1].Opt.WarmupKey() {
		t.Fatal("exact and sampled points do not share a warmup group")
	}

	before := sim.WarmupRuns()
	outs, stats, err := Run(Campaign{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if delta := sim.WarmupRuns() - before; delta != 1 {
		t.Errorf("warmups = %d, want 1 shared across fidelities", delta)
	}
	if stats.Executed != 2 {
		t.Errorf("Executed = %d, want 2", stats.Executed)
	}
	if outs[0].Result.Estimates != nil {
		t.Errorf("exact outcome has estimates: %+v", outs[0].Result.Estimates)
	}
	if est, ok := outs[1].Result.Estimates["ipc"]; !ok || est.Windows < 2 {
		t.Errorf("sampled outcome lacks a usable ipc estimate: %+v", outs[1].Result.Estimates)
	}

	// A single-entry axis keeps legacy keys.
	g.Fidelities = g.Fidelities[:1]
	if k := g.Jobs()[0].Key; k != "mcf/secddr+ctr" {
		t.Errorf("single-fidelity key = %q, want unsuffixed", k)
	}
	g.Fidelities = nil
	if k := g.Jobs()[0].Key; k != "mcf/secddr+ctr" {
		t.Errorf("no-axis key = %q, want unsuffixed", k)
	}
}

// batchFeed hands out one batch per call, as a sweep server's queue
// hands out lease batches; once they run out it blocks until ctx ends,
// as an idle queue does.
func batchFeed(batches ...[]Job) Feed {
	var mu sync.Mutex
	return func(ctx context.Context, _ int) []Job {
		mu.Lock()
		if len(batches) > 0 {
			b := batches[0]
			batches = batches[1:]
			mu.Unlock()
			return b
		}
		mu.Unlock()
		<-ctx.Done()
		return nil
	}
}

// TestCarryAcrossBatches feeds the fork grid to the open-feed scheduler
// in three lease-sized batches that cut the mcf group in two, as a fleet
// worker's leases do. The batch that starts mid-group forks from the
// snapshot the scheduler kept, so the whole grid warms once per workload
// even though a single-point group warms (and forks) instead of running
// cold. The results are the ones a one-shot campaign produces, and the
// scheduler is left holding the last group's snapshot.
func TestCarryAcrossBatches(t *testing.T) {
	jobs := forkGrid().Jobs() // mcf x3, lbm x3
	want, _, err := Run(Campaign{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	full := make(chan struct{})
	store := &countingStore{memStore: newMemStore(), n: len(jobs), full: func() { close(full) }}
	prog := &progressTracker{}
	s := Campaign{Workers: 2}.sched(prog)
	// Once every result is in and the slots are quiet, note the kept
	// snapshot's key and end the feed.
	var keptKey string
	go func() {
		<-full
		for quiet := false; !quiet; time.Sleep(time.Millisecond) {
			s.mu.Lock()
			if quiet = s.active == 0; quiet && s.groups[s.newest.key] == s.newest {
				keptKey = s.newest.warmed.Key()
			}
			s.mu.Unlock()
		}
		cancel()
	}()
	var forked atomic.Int32
	s.finish = func(p point, res sim.Result, err error, f bool) {
		if err != nil {
			t.Errorf("%s: %v", p.Key, err)
			return
		}
		if f {
			forked.Add(1)
		}
		store.Record(p.digest, res)
	}
	before := sim.WarmupRuns()
	s.run(ctx, nil, batchFeed(jobs[:2], jobs[2:3], jobs[3:]))
	if delta := sim.WarmupRuns() - before; delta != 2 || prog.snapshot().Warmups != 2 {
		t.Errorf("warmups = %d (counted %d), want 2: mcf/secddr+ctr forks from the kept snapshot", delta, prog.snapshot().Warmups)
	}
	if n := forked.Load(); n != 6 {
		t.Errorf("forked = %d, want 6", n)
	}
	for _, o := range want {
		if got, ok := store.Lookup(o.Digest); !ok || !reflect.DeepEqual(got, o.Result) {
			t.Errorf("%s: fed result differs from the one-shot campaign", o.Key)
		}
	}
	if keptKey != jobs[5].Opt.WarmupKey() {
		t.Error("the scheduler does not keep the last group's snapshot")
	}
	if len(s.held) != 0 {
		t.Errorf("%d points still held after all finished", len(s.held))
	}
}

// TestServeLeaseWindow: a top-up never lifts the jobs held but not
// started above two per slot. The six jobs share one warmup group, so
// while one slot warms it the other has nothing to run; the members
// waiting on that warmup fill the window, and the feed is not asked for
// more until forks start.
func TestServeLeaseWindow(t *testing.T) {
	jobs := forkGrid().Jobs()[:3] // mcf x3
	for _, j := range jobs[:3] {
		j.Key += "/long"
		j.Opt.InstrPerCore += 1_000 // measured region only: same group
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		if j.Opt.WarmupKey() != jobs[0].Opt.WarmupKey() {
			t.Fatalf("%s is not in the first job's warmup group", j.Key)
		}
	}
	const workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := Campaign{Workers: workers}.sched(&progressTracker{})
	var mu sync.Mutex
	next, finished, peak := 0, 0, 0
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
			return nil
		}
		s.mu.Lock()
		held := s.unstarted + len(batch)
		s.mu.Unlock()
		mu.Lock()
		peak = max(peak, held)
		mu.Unlock()
		return batch
	})
	if finished != len(jobs) {
		t.Errorf("%d of %d points finished", finished, len(jobs))
	}
	if peak > leaseAhead*workers {
		t.Errorf("held %d jobs not started, want at most %d", peak, leaseAhead*workers)
	}
}

// TestServeFailuresEndAlone: on an open feed a failure ends only what it
// touches. A failed warmup fails each member of its group, once, and the
// other group's points still run and record; nothing aborts.
func TestServeFailuresEndAlone(t *testing.T) {
	jobs := forkGrid().Jobs() // mcf x3, lbm x3
	for i := range jobs[3:] {
		jobs[3+i].Opt.InstrPerCore = 0 // the lbm group's warmup rejects it
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	failed := map[string]int{}
	fates := 0
	fate := func() {
		if fates++; fates == len(jobs) {
			cancel()
		}
	}
	store := newMemStore()
	Serve(ctx, ServeOptions{Workers: 2, Finish: func(d string, res sim.Result, err error) {
		if err == nil {
			store.Record(d, res)
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			failed[d]++
		}
		fate()
	}}, batchFeed(jobs))

	for _, j := range jobs[:3] {
		if _, ok := store.Lookup(j.Opt.Digest()); !ok {
			t.Errorf("%s: no result; a failure in another group stopped it", j.Key)
		}
	}
	for _, j := range jobs[3:] {
		if n := failed[j.Opt.Digest()]; n != 1 {
			t.Errorf("%s: reported failed %d times, want once", j.Key, n)
		}
	}
	if len(failed) != 3 {
		t.Errorf("%d points failed, want the 3 of the failed group", len(failed))
	}
}

// countingStore calls full once it holds n results.
type countingStore struct {
	*memStore
	n    int
	full func()
}

func (s *countingStore) Record(d string, res sim.Result) error {
	s.memStore.Record(d, res)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.m) == s.n {
		s.full()
	}
	return nil
}

// TestOnStartBracketsEachPoint: every point Serve executes is announced
// once before it ends: on the forked path, on the cold path of a
// substituted Sim, and for a lone fed point, which warms and forks.
// Shared warmups are not announced.
func TestOnStartBracketsEachPoint(t *testing.T) {
	jobs := forkGrid().Jobs() // mcf x3, lbm x3
	for _, tc := range []struct {
		name    string
		jobs    []Job
		sim     func(sim.Options) (sim.Result, error)
		warmups uint64 // timed warmups the run takes
	}{
		{"forked", jobs, nil, 2},
		{"cold", jobs, sim.Run, uint64(len(jobs))},
		{"fed", jobs[:1], nil, 1},
	} {
		name := tc.name
		var mu sync.Mutex
		started := map[string]int{}
		store := &startCheckStore{memStore: newMemStore(), started: func(d string) bool {
			mu.Lock()
			defer mu.Unlock()
			return started[d] == 1
		}}
		before := sim.WarmupRuns()
		ctx, cancel := context.WithCancel(context.Background())
		finished := 0
		Serve(ctx, ServeOptions{
			Sim: tc.sim,
			OnStart: func(d string) {
				mu.Lock()
				started[d]++
				mu.Unlock()
			},
			Finish: func(d string, res sim.Result, err error) {
				if err != nil {
					t.Errorf("%s: %v", name, err)
				}
				store.Record(d, res)
				mu.Lock()
				defer mu.Unlock()
				if finished++; finished == len(tc.jobs) {
					cancel() // the feed has nothing more
				}
			},
		}, batchFeed(tc.jobs))
		cancel()
		executed := len(store.m)
		if executed != len(tc.jobs) || len(started) != executed || store.unannounced != 0 {
			t.Errorf("%s: %d points announced, %d of %d executed, %d recorded before their start",
				name, len(started), executed, len(tc.jobs), store.unannounced)
		}
		if got := sim.WarmupRuns() - before; got != tc.warmups {
			t.Errorf("%s: %d warmups, want %d", name, got, tc.warmups)
		}
	}
}

// startCheckStore counts results recorded for points whose start was
// not announced exactly once.
type startCheckStore struct {
	*memStore
	started     func(digest string) bool
	unannounced int
}

func (s *startCheckStore) Record(d string, res sim.Result) error {
	if !s.started(d) {
		s.mu.Lock()
		s.unannounced++
		s.mu.Unlock()
	}
	return s.memStore.Record(d, res)
}

// TestForksStartInGridOrder: a group's forks are claimed oldest-first, so
// with one slot its points start in the order they arrived. The figure
// grids put each group's slowest point first; started last, it would run
// alone at the sweep's tail.
func TestForksStartInGridOrder(t *testing.T) {
	jobs := forkGrid().Jobs()[:3] // mcf x3: one group
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var started []string
	finished := 0
	Serve(ctx, ServeOptions{
		Workers: 1,
		OnStart: func(d string) {
			mu.Lock()
			started = append(started, d)
			mu.Unlock()
		},
		Finish: func(d string, _ sim.Result, err error) {
			if err != nil {
				t.Errorf("%s: %v", d, err)
			}
			mu.Lock()
			defer mu.Unlock()
			if finished++; finished == len(jobs) {
				cancel()
			}
		},
	}, batchFeed(jobs))
	want := make([]string, len(jobs))
	for i, j := range jobs {
		want[i] = j.Opt.Digest()
	}
	if !reflect.DeepEqual(started, want) {
		t.Errorf("start order %v, want grid order %v", started, want)
	}
}
