package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"secddr/internal/config"
	"secddr/internal/sim"
)

// fleetServer builds a fleet-only server (no local pool) over a memStore
// plus an HTTP test server and client.
func fleetServer(t *testing.T) (*Server, *memStore, *Client) {
	t.Helper()
	store := newMemStore()
	srv := NewServer(store, ServerOptions{Workers: -1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, store, &Client{BaseURL: ts.URL}
}

// waitState polls a sweep until it leaves stateRunning.
func waitState(t *testing.T, sw *sweep) SweepStatus {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		st := sw.status()
		if st.State != string(stateRunning) {
			return st
		}
		select {
		case <-deadline:
			t.Fatalf("sweep %s never finished: %+v", sw.id, st)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestWireJobRoundTrip: sim.Options must survive the lease protocol's
// JSON round trip with its digest intact — this is what makes a remotely
// executed sweep byte-identical to a local one (same digest, same
// deterministic simulation, same stored result).
func TestWireJobRoundTrip(t *testing.T) {
	for _, sp := range []Spec{
		tinySpec(),
		{},
		{Modes: []string{"all"}, Workloads: []string{"bc"}, Quick: true, SeedPerJob: true, Channels: 4},
		{Modes: []string{"secddr+ctr"}, Scenarios: []string{"all"}, Quick: true},
	} {
		grid, err := sp.Grid()
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range grid.Jobs() {
			raw, err := json.Marshal(WireJob{Digest: j.Opt.Digest(), Key: j.Key, Options: j.Opt})
			if err != nil {
				t.Fatal(err)
			}
			var back WireJob
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatal(err)
			}
			if got := back.Options.Digest(); got != back.Digest {
				t.Fatalf("job %q: digest changed across the wire: %s -> %s", j.Key, back.Digest, got)
			}
		}
	}
}

// TestLeaseAckCompletesSweep drives the protocol by hand over real HTTP:
// a fleet-only server queues a sweep's jobs, a bare client leases them
// all, uploads results, and the sweep completes with executed stats and
// the store populated.
func TestLeaseAckCompletesSweep(t *testing.T) {
	srv, store, cl := fleetServer(t)
	ctx := context.Background()

	sw, err := submitFresh(srv, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	var got []WireJob
	deadline := time.Now().Add(10 * time.Second)
	for len(got) < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("leased only %d/4 jobs", len(got))
		}
		resp, err := cl.Lease(ctx, LeaseRequest{WorkerID: "w1", MaxJobs: 8, WaitMS: 200})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, resp.Jobs...)
	}
	for _, j := range got {
		res, _ := fakeSim(j.Options)
		accepted, err := cl.PostResult(ctx, j.Digest, ResultUpload{WorkerID: "w1", Result: &res})
		if err != nil || !accepted {
			t.Fatalf("ack %s: accepted=%v err=%v", j.Digest, accepted, err)
		}
	}

	st := waitState(t, sw)
	if st.State != string(stateDone) || st.Stats.Executed != 4 {
		t.Fatalf("sweep = %+v, want done with 4 executed", st)
	}
	store.mu.Lock()
	n := len(store.m)
	store.mu.Unlock()
	if n != 4 {
		t.Fatalf("store holds %d results, want 4 (uploads must route through the store)", n)
	}
}

// TestLeaseExpiryReclaim: a worker that leases jobs and dies (never acks,
// never heartbeats) must have its jobs reclaimed and re-leased to a
// surviving worker, and the dead worker's late ack must be ignored — the
// crash-safety contract the worker-smoke CI job exercises with a real
// SIGKILL.
func TestLeaseExpiryReclaim(t *testing.T) {
	srv, _, cl := fleetServer(t)
	ctx := context.Background()

	// Inject a controllable clock (under the queue lock: the reaper
	// goroutine reads it concurrently).
	var (
		clockMu sync.Mutex
		offset  time.Duration
	)
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return time.Now().Add(offset)
	}
	srv.queue.mu.Lock()
	srv.queue.now = clock
	srv.queue.mu.Unlock()

	spec := Spec{Modes: []string{"unprotected"}, Workloads: []string{"mcf"}, Quick: true}
	sw, err := submitFresh(srv, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Worker "dead" leases the job and vanishes.
	lease, err := cl.Lease(ctx, LeaseRequest{WorkerID: "dead", MaxJobs: 1, WaitMS: 2000, TTLMS: 1000})
	if err != nil || len(lease.Jobs) != 1 {
		t.Fatalf("lease = %+v, %v", lease, err)
	}
	job := lease.Jobs[0]

	// Heartbeats keep the lease alive across expiry-sized clock jumps.
	clockMu.Lock()
	offset = 600 * time.Millisecond
	clockMu.Unlock()
	if held, err := cl.Heartbeat(ctx, "dead", []string{job.Digest}); err != nil || held != 1 {
		t.Fatalf("heartbeat = %d, %v, want 1 held", held, err)
	}
	time.Sleep(2 * reapInterval) // reaper must NOT reclaim a heartbeating worker
	if lease, err := cl.Lease(ctx, LeaseRequest{WorkerID: "w2", MaxJobs: 1, WaitMS: 0}); err != nil || len(lease.Jobs) != 0 {
		t.Fatalf("job re-leased while its worker still heartbeats: %+v, %v", lease, err)
	}

	// Now the worker goes silent past its TTL: the reaper reclaims.
	clockMu.Lock()
	offset += 2 * time.Second
	clockMu.Unlock()
	var release LeaseResponse
	deadline := time.Now().Add(10 * time.Second)
	for len(release.Jobs) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("expired lease never reclaimed")
		}
		if release, err = cl.Lease(ctx, LeaseRequest{WorkerID: "w2", MaxJobs: 1, WaitMS: 200}); err != nil {
			t.Fatal(err)
		}
	}
	if release.Jobs[0].Digest != job.Digest {
		t.Fatalf("reclaimed digest %s, want %s", release.Jobs[0].Digest, job.Digest)
	}

	// The survivor completes the job; the sweep finishes.
	res, _ := fakeSim(release.Jobs[0].Options)
	if accepted, err := cl.PostResult(ctx, job.Digest, ResultUpload{WorkerID: "w2", Result: &res}); err != nil || !accepted {
		t.Fatalf("survivor ack: accepted=%v err=%v", accepted, err)
	}
	if st := waitState(t, sw); st.State != string(stateDone) || st.Stats.Executed != 1 {
		t.Fatalf("sweep = %+v, want done with 1 executed", st)
	}

	// The dead worker rises and acks late: idempotently ignored.
	if accepted, err := cl.PostResult(ctx, job.Digest, ResultUpload{WorkerID: "dead", Result: &res}); err != nil || accepted {
		t.Fatalf("late ack: accepted=%v err=%v, want ignored", accepted, err)
	}
	// And a plain double ack from the survivor is ignored the same way.
	if accepted, err := cl.PostResult(ctx, job.Digest, ResultUpload{WorkerID: "w2", Result: &res}); err != nil || accepted {
		t.Fatalf("double ack: accepted=%v err=%v, want ignored", accepted, err)
	}

	if srv.metrics.snapshot().requeued < 1 {
		t.Fatal("requeue counter never incremented")
	}
}

// TestShutdownFailsUnackedRemote: Server.Shutdown must requeue-and-fail
// jobs leased to remote workers (instead of waiting for acks that may
// never come), refuse further leases, and let Drain return promptly so
// secddr-serve can flush and close its store.
func TestShutdownFailsUnackedRemote(t *testing.T) {
	srv, _, cl := fleetServer(t)
	ctx := context.Background()

	spec := Spec{Modes: []string{"unprotected"}, Workloads: []string{"mcf", "lbm"}, Quick: true}
	sw, err := submitFresh(srv, spec)
	if err != nil {
		t.Fatal(err)
	}
	lease, err := cl.Lease(ctx, LeaseRequest{WorkerID: "w1", MaxJobs: 1, WaitMS: 2000})
	if err != nil || len(lease.Jobs) != 1 {
		t.Fatalf("lease = %+v, %v", lease, err)
	}

	srv.Shutdown()

	drained := make(chan struct{})
	go func() { srv.Drain(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain hung on unacked remote jobs after Shutdown")
	}
	st := sw.status()
	if st.State != string(stateFailed) || !strings.Contains(st.Error, "shutting down") {
		t.Fatalf("sweep after shutdown = %+v, want failed with shutdown error", st)
	}

	// No more leases; the worker's late ack is ignored.
	if _, err := cl.Lease(ctx, LeaseRequest{WorkerID: "w2", MaxJobs: 1}); err == nil ||
		!strings.Contains(err.Error(), "shutting down") {
		t.Fatalf("lease after shutdown = %v, want shutting-down error", err)
	}
	res, _ := fakeSim(lease.Jobs[0].Options)
	if accepted, err := cl.PostResult(ctx, lease.Jobs[0].Digest, ResultUpload{WorkerID: "w1", Result: &res}); err != nil || accepted {
		t.Fatalf("ack after shutdown: accepted=%v err=%v, want ignored", accepted, err)
	}
}

// TestBaseContextCancelFailsSweeps: cancelling ServerOptions.BaseContext
// alone (no Shutdown call) must still fail queued sweeps promptly — the
// executors die with the context, so leaving the queue open would hang
// every flight forever.
func TestBaseContextCancelFailsSweeps(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	srv := NewServer(newMemStore(), ServerOptions{Workers: -1, BaseContext: ctx})
	sw, err := submitFresh(srv, Spec{Modes: []string{"unprotected"}, Workloads: []string{"mcf"}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	st := waitState(t, sw)
	if st.State != string(stateFailed) || !strings.Contains(st.Error, "shutting down") {
		t.Fatalf("sweep after BaseContext cancel = %+v, want failed with shutdown error", st)
	}
	drained := make(chan struct{})
	go func() { srv.Drain(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain hung after BaseContext cancellation")
	}
}

// TestReservedWorkerIDRejected: the "!" id prefix marks in-process
// leases (never expiring, surviving Shutdown); remote workers must not
// be able to claim or complete under it.
func TestReservedWorkerIDRejected(t *testing.T) {
	_, _, cl := fleetServer(t)
	ctx := context.Background()
	if _, err := cl.Lease(ctx, LeaseRequest{WorkerID: "!local", MaxJobs: 1}); err == nil ||
		!strings.Contains(err.Error(), "reserved") {
		t.Fatalf("lease as !local = %v, want reserved-id rejection", err)
	}
	res := sim.Result{Mode: config.ModeUnprotected}
	if _, err := cl.PostResult(ctx, "deadbeef", ResultUpload{WorkerID: "!local", Result: &res}); err == nil ||
		!strings.Contains(err.Error(), "reserved") {
		t.Fatalf("ack as !local = %v, want reserved-id rejection", err)
	}
	if _, err := cl.Heartbeat(ctx, "", nil); err == nil ||
		!strings.Contains(err.Error(), "worker_id") {
		t.Fatalf("heartbeat with empty id = %v, want rejection", err)
	}
}

// TestShutdownLetsLocalFinish: jobs the in-process pool already started
// are not abandoned by Shutdown — their results still reach the store
// (the secddr-serve SIGINT contract: in-flight work is never thrown
// away).
func TestShutdownLetsLocalFinish(t *testing.T) {
	store := newMemStore()
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	runSim := func(o sim.Options) (sim.Result, error) {
		started <- struct{}{}
		<-release
		return fakeSim(o)
	}
	srv := NewServer(store, ServerOptions{Workers: 4, runSim: runSim})
	sw, err := submitFresh(srv, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // all four digests executing locally
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("local pool never started the jobs")
		}
	}
	srv.Shutdown()
	close(release)
	srv.Drain()
	if st := sw.status(); st.State != string(stateDone) || st.Stats.Executed != 4 {
		t.Fatalf("sweep = %+v, want done with 4 executed despite shutdown", st)
	}
	store.mu.Lock()
	n := len(store.m)
	store.mu.Unlock()
	if n != 4 {
		t.Fatalf("store holds %d results, want 4", n)
	}
}

// TestShutdownFailsUnstartedLocal: the local pool leases ahead of what
// it runs. At Shutdown a local job leased but not started fails with
// ErrShuttingDown, a started one still finishes into the store, and a
// started one the pool gives back afterwards (an aborted batch releasing
// its leases) fails too — the closed queue has nowhere to requeue it.
func TestShutdownFailsUnstartedLocal(t *testing.T) {
	store := newMemStore()
	q := newQueue(store)
	open := map[string]*QueuedJob{}
	for _, d := range []string{"ran", "unstarted", "given-back"} {
		jobs, _ := q.Enqueue("c", 0, Submission{Digest: d, Key: d})
		open[d] = jobs[0]
	}
	if jobs, err := q.Lease(expired, localWorkerID, 3, 0); err != nil || len(jobs) != 3 {
		t.Fatalf("lease = %d jobs, %v", len(jobs), err)
	}
	q.Start("ran")
	q.Start("given-back")
	if st := q.stats(); st.running != 2 {
		t.Fatalf("running = %d, want 2 (started, not leased)", st.running)
	}
	q.Shutdown()

	if _, _, err := open["unstarted"].outcome(false); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("unstarted local job: err = %v, want ErrShuttingDown", err)
	}
	if !q.Release("given-back", localWorkerID) {
		t.Error("release of a started local job after Shutdown was refused")
	}
	if _, _, err := open["given-back"].outcome(false); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("local job released after Shutdown: err = %v, want ErrShuttingDown", err)
	}
	if !q.Complete("ran", localWorkerID, sim.Result{IPC: 1}, nil, 0) {
		t.Fatal("started local job could not complete after Shutdown")
	}
	if res, via, err := open["ran"].outcome(false); err != nil || via != viaRan || res.IPC != 1 {
		t.Errorf("started local job: %+v via %s, %v; want its result", res, via, err)
	}
	if _, ok := store.Lookup("ran"); !ok {
		t.Error("started local job's result never reached the store")
	}
}

// TestWorkerFleetEndToEnd runs the real Worker loop against a fleet-only
// server: a remote sweep completes through two workers with results in
// deterministic local job order, exactly as a local run would emit them.
func TestWorkerFleetEndToEnd(t *testing.T) {
	_, _, cl := fleetServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := &Worker{
			Client:   cl,
			ID:       "w" + string(rune('1'+i)),
			Workers:  2,
			PollWait: 50 * time.Millisecond,
			Sim:      fakeSim,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}

	outs, stats, err := cl.RunRemoteKeyed(ctx, defaultKey(t, tinySpec()), tinySpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 4 || stats.Executed != 4 {
		t.Fatalf("remote run: %d outcomes, stats %+v", len(outs), stats)
	}
	grid, _ := tinySpec().Grid()
	for i, j := range grid.Jobs() {
		if outs[i].Key != j.Key {
			t.Fatalf("outcome[%d] = %q, want %q (deterministic job order)", i, outs[i].Key, j.Key)
		}
	}

	// The same grid under a fresh key is served from the store: zero
	// executions (the same key would instead attach to the done sweep).
	outs2, stats2, err := cl.RunRemoteKeyed(ctx, "rerun", tinySpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Executed != 0 || stats2.Cached != 4 || len(outs2) != 4 {
		t.Fatalf("re-run stats = %+v, want 0 executed / 4 cached", stats2)
	}

	cancel()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("workers never exited after cancel")
	}
}

// TestWorkerReportsSimError: a deterministic simulation failure on a
// worker fails the sweep with that error (not a lease timeout), and the
// worker releases the rest of its batch instead of sitting on it.
func TestWorkerReportsSimError(t *testing.T) {
	srv, _, cl := fleetServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	boom := errors.New("metadata cache wedged")
	w := &Worker{
		Client:   cl,
		ID:       "w1",
		Workers:  1,
		PollWait: 50 * time.Millisecond,
		Sim: func(o sim.Options) (sim.Result, error) {
			if o.Workload.Name == "mcf" {
				return sim.Result{}, boom
			}
			return fakeSim(o)
		},
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); w.Run(ctx) }()

	sw, err := submitFresh(srv, Spec{Modes: []string{"unprotected"}, Workloads: []string{"mcf", "lbm"}, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, sw)
	if st.State != string(stateFailed) || !strings.Contains(st.Error, boom.Error()) {
		t.Fatalf("sweep = %+v, want failed with the worker's error", st)
	}

	cancel()
	wg.Wait()
}

// TestWorkerReleasesFailedUpload: a result upload that fails (here the
// server answers 500 to the first one) must not strand its job on the
// worker. The worker gives the lease back, the job is leased and run
// again, and the sweep completes.
func TestWorkerReleasesFailedUpload(t *testing.T) {
	srv := NewServer(newMemStore(), ServerOptions{Workers: -1})
	defer func() { srv.Shutdown(); srv.Drain() }()
	h := srv.Handler()
	var mu sync.Mutex
	refused := "" // the path of the refused upload
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/result") {
			mu.Lock()
			first := refused == ""
			if first {
				refused = r.URL.Path
			}
			mu.Unlock()
			if first {
				http.Error(w, "upload lost", http.StatusInternalServerError)
				return
			}
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	ran := map[string]int{}
	w := &Worker{
		Client:   &Client{BaseURL: ts.URL},
		ID:       "w1",
		Workers:  2,
		PollWait: 50 * time.Millisecond,
		Sim: func(o sim.Options) (sim.Result, error) {
			mu.Lock()
			ran[o.Digest()]++
			mu.Unlock()
			return fakeSim(o)
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); w.Run(ctx) }()
	defer func() { cancel(); wg.Wait() }()

	sw, err := submitFresh(srv, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, sw); st.State != string(stateDone) {
		t.Fatalf("sweep = %+v, want done", st)
	}
	mu.Lock()
	defer mu.Unlock()
	digest := strings.TrimSuffix(strings.TrimPrefix(refused, "/v1/jobs/"), "/result")
	if ran[digest] != 2 {
		t.Errorf("the job whose upload failed ran %d times, want 2 (leased again)", ran[digest])
	}
}

// TestLeaseAbandonedLongPoll: a worker whose long-poll was abandoned
// (its request context ended) must not be handed the next job to arrive.
// Such a job would sit out its lease TTL on a worker that will never run
// it, and then be requeued at the cost of one of its allowed requeues.
func TestLeaseAbandonedLongPoll(t *testing.T) {
	srv := NewServer(newMemStore(), ServerOptions{Workers: -1})
	defer func() { srv.Shutdown(); srv.Drain() }()
	h := srv.Handler()
	leaseReturned := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.URL.Path == "/v1/jobs/lease" {
			leaseReturned <- struct{}{}
		}
	}))
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := cl.Lease(ctx, LeaseRequest{WorkerID: "gone", MaxJobs: 1, WaitMS: 5000}); err == nil {
		t.Fatal("lease outlived its context")
	}
	// The server handler should return once it sees the disconnect. Do not
	// insist: a handler that keeps polling shows up below as a leased job.
	select {
	case <-leaseReturned:
	case <-time.After(2 * time.Second):
	}

	if _, err := submitFresh(srv, tinySpec()); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		st := srv.queue.stats()
		if st.pending+st.leased == 4 {
			if st.leased != 0 || st.pending != 4 {
				t.Fatalf("queue = %d pending, %d leased; want 4 pending, 0 leased to the departed worker", st.pending, st.leased)
			}
			return
		}
		select {
		case <-deadline:
			t.Fatalf("queue never held the sweep's 4 jobs: %+v", st)
		case <-time.After(time.Millisecond):
		}
	}
}
