package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"secddr/internal/sim"
)

// expired is a context that has already ended: Lease takes what is
// pending and returns without waiting.
var expired = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// drainOrder leases jobs one at a time and returns the digest order the
// scheduler served them in.
func drainOrder(t *testing.T, q *Queue) []string {
	t.Helper()
	var order []string
	for {
		jobs, err := q.Lease(expired, "w", 1, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) == 0 {
			return order
		}
		order = append(order, jobs[0].Digest)
		q.Complete(jobs[0].Digest, "w", sim.Result{}, nil, 0)
	}
}

func mustEnqueue(t *testing.T, q *Queue, digest, client string, priority int) {
	t.Helper()
	if jobs, _ := q.Enqueue(client, priority, Submission{Digest: digest, Key: digest}); jobs[0].err != nil {
		t.Fatal(jobs[0].err)
	}
}

// TestQueuePriorityOrder: higher-priority jobs lease before lower ones
// regardless of submission order, and negative priorities go last.
func TestQueuePriorityOrder(t *testing.T) {
	q := newQueue(newMemStore())
	mustEnqueue(t, q, "low", "a", -1)
	mustEnqueue(t, q, "mid", "a", 0)
	mustEnqueue(t, q, "high", "a", 5)
	got := drainOrder(t, q)
	want := []string{"high", "mid", "low"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("lease order = %v, want %v", got, want)
	}
}

// TestQueueClientFairness: clients sharing a priority are served
// round-robin job-for-job, so a small sweep is not starved behind a big
// one submitted first; within one client, FIFO.
func TestQueueClientFairness(t *testing.T) {
	q := newQueue(newMemStore())
	mustEnqueue(t, q, "a1", "alice", 0)
	mustEnqueue(t, q, "a2", "alice", 0)
	mustEnqueue(t, q, "a3", "alice", 0)
	mustEnqueue(t, q, "b1", "bob", 0)
	mustEnqueue(t, q, "c1", "carol", 0)
	got := drainOrder(t, q)
	// Ring order is first-seen: alice, bob, carol — then alice again once
	// the others' lanes drain.
	want := []string{"a1", "b1", "c1", "a2", "a3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("lease order = %v, want %v", got, want)
	}
}

// TestQueueRequeueFront: a reclaimed lease goes back to the front of its
// client's lane — it runs before that client's fresh work, but fairness
// across clients is untouched.
func TestQueueRequeueFront(t *testing.T) {
	q := newQueue(newMemStore())
	clock := time.Now()
	var mu sync.Mutex
	q.now = func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }

	mustEnqueue(t, q, "a1", "alice", 0)
	mustEnqueue(t, q, "a2", "alice", 0)
	jobs, err := q.Lease(expired, "w1", 1, time.Second)
	if err != nil || len(jobs) != 1 || jobs[0].Digest != "a1" {
		t.Fatalf("lease = %v, %v", jobs, err)
	}
	mu.Lock()
	clock = clock.Add(2 * time.Second) // a1's lease expires
	mu.Unlock()
	if n := q.Reap(); n != 1 {
		t.Fatalf("Reap() = %d, want 1", n)
	}
	if got := drainOrder(t, q); fmt.Sprint(got) != fmt.Sprint([]string{"a1", "a2"}) {
		t.Fatalf("post-reap order = %v, want [a1 a2] (requeue to front)", got)
	}
}

// TestQueueDropsDrainedLanes: once a client's jobs are leased and
// completed, the queue holds nothing of them: the completed jobs (and
// their results) can be collected, and every lane, ring slot and
// priority bucket they used is gone.
func TestQueueDropsDrainedLanes(t *testing.T) {
	q := newQueue(newMemStore())
	var refs []weak.Pointer[QueuedJob]
	for i := range 8 {
		d := fmt.Sprint("d", i)
		jobs, _ := q.Enqueue(fmt.Sprint("client", i%3), i%2, Submission{Digest: d, Key: d})
		refs = append(refs, weak.Make(jobs[0]))
	}
	if got := drainOrder(t, q); len(got) != 8 {
		t.Fatalf("drained %d jobs, want 8", len(got))
	}
	if len(q.prios) != 0 || len(q.buckets) != 0 {
		t.Errorf("queue keeps %d priorities, %d buckets after draining; want none", len(q.prios), len(q.buckets))
	}
	runtime.GC()
	for i, r := range refs {
		if r.Value() != nil {
			t.Errorf("completed job d%d is still reachable", i)
		}
	}
	runtime.KeepAlive(q) // the queue itself must outlive the check
}

// TestServerQuota: MaxJobsPerClient rejects a submission that would push
// one client's outstanding jobs over the cap, per client, and frees up
// as sweeps complete.
func TestServerQuota(t *testing.T) {
	block := make(chan struct{})
	runSim := func(o sim.Options) (sim.Result, error) {
		<-block
		return fakeSim(o)
	}
	srv := NewServer(newMemStore(), ServerOptions{Workers: 1, MaxJobsPerClient: 5, runSim: runSim})

	aliceSpec := tinySpec() // 4 jobs
	aliceSpec.Client = "alice"
	sw, _, err := srv.SubmitKeyed("alice-1", aliceSpec)
	if err != nil {
		t.Fatal(err)
	}

	// 4 outstanding + 4 more > 5: rejected, and counted.
	more := aliceSpec
	more.Seed = new(uint64) // distinct spec, same client
	if _, _, err := srv.SubmitKeyed("alice-2", more); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota submit error = %v, want ErrQuotaExceeded", err)
	}
	// Re-submitting the first sweep's exact (key, spec) attaches — never
	// quota-checked, it adds no jobs.
	if _, attached, err := srv.SubmitKeyed("alice-1", aliceSpec); err != nil || !attached {
		t.Fatalf("attach = %v, %v; want attached", attached, err)
	}
	// A different client has its own budget.
	bobSpec := tinySpec()
	bobSpec.Client = "bob"
	if _, _, err := srv.SubmitKeyed("bob-1", bobSpec); err != nil {
		t.Fatalf("bob's submit rejected: %v", err)
	}

	close(block)
	waitState(t, sw)
	// Alice's jobs completed; her quota is free again.
	if _, _, err := srv.SubmitKeyed("alice-2", more); err != nil {
		t.Fatalf("post-completion submit rejected: %v", err)
	}
	rejected := srv.metrics.snapshot().quotaRejected
	if rejected != 1 {
		t.Fatalf("quotaRejected = %d, want 1", rejected)
	}
	srv.Shutdown()
	srv.Drain()
}

// TestCompleteCountsSimWallBeforePublish: Queue.Complete observes a
// point's sim wall time before it records and publishes the result, for
// a local-pool lease and a remote lease alike, so a sweep that has seen a
// result also sees it in secddr_job_sim_wall_us. A straggler's repeat is
// not counted.
func TestCompleteCountsSimWallBeforePublish(t *testing.T) {
	for _, worker := range []string{localWorkerID, "w1"} {
		store := &recordGate{memStore: newMemStore(), recording: make(chan struct{}, 1), release: make(chan struct{})}
		q := newQueue(store)
		simWalls := func() uint64 { m := q.metrics.snapshot(); return m.simWall.Count() }
		jobs, _ := q.Enqueue("a", 0, Submission{Digest: "d", Key: "d"})
		if leased, err := q.Lease(expired, worker, 1, time.Minute); err != nil || len(leased) != 1 {
			t.Fatalf("%s: lease = %v, %v", worker, leased, err)
		}
		accepted := make(chan bool)
		go func() { accepted <- q.Complete("d", worker, sim.Result{IPC: 1}, nil, 5*time.Millisecond) }()
		<-store.recording // Complete is recording the result: not yet published
		if got := simWalls(); got != 1 {
			t.Errorf("%s: sim wall count = %d before the result was published, want 1", worker, got)
		}
		close(store.release)
		if !<-accepted {
			t.Fatalf("%s: Complete refused the leaseholder", worker)
		}
		if _, _, err := jobs[0].outcome(false); err != nil {
			t.Fatal(err)
		}
		if q.Complete("d", worker, sim.Result{IPC: 1}, nil, 5*time.Millisecond) {
			t.Errorf("%s: a repeated Complete was accepted", worker)
		}
		if got := simWalls(); got != 1 {
			t.Errorf("%s: sim wall count = %d after a repeated Complete, want 1", worker, got)
		}
	}
}
