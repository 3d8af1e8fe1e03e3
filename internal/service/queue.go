package service

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"secddr/internal/sim"
)

// maxRequeues bounds how often one job may be reclaimed from dead workers
// before its flight fails: a job that kills every worker it lands on (or a
// fleet that keeps crashing) must not circulate forever.
const maxRequeues = 5

// jobState is the lifecycle of a queued job. Jobs are created pending,
// move to leased when an executor takes them, back to pending when a lease
// expires or is released, and leave the queue on completion.
type jobState int

const (
	statePending jobState = iota
	stateLeased
)

// How a digest's result was produced, threaded from the completing
// executor back to runDigest for the cache accounting.
const (
	viaRan    = "ran"    // an executor simulated it
	viaStored = "stored" // late store hit discovered at dispatch time
	viaFailed = "failed" // completed with an error, nothing to record
)

// localWorkerID marks jobs held by the in-process pool. Local leases never
// expire: the goroutine holding one cannot crash without taking the whole
// queue with it, so reclamation is meaningless and shutdown lets them run
// to completion (their results still reach the store).
const localWorkerID = "!local"

// QueuedJob is one digest awaiting execution. Digest doubles as the job ID
// on the wire: the queue never holds two jobs for one digest (the flight
// table dedups upstream), so lease and ack endpoints address jobs by it.
type QueuedJob struct {
	Digest string
	Key    string
	Opt    sim.Options

	// Client and Priority place the job in the scheduler: jobs compete
	// first by priority (higher leases first), then round-robin across
	// the clients sharing that priority, then FIFO within one client's
	// lane. Both come from the submitting sweep's spec.
	Client   string
	Priority int

	state    jobState
	worker   string
	expires  time.Time // zero for local leases
	ttl      time.Duration
	requeues int

	// enqueuedAt is when the job last became pending (Enqueue or requeue);
	// leasedAt is when the current lease was taken. The deltas feed the
	// queue-wait and lease-duration histograms.
	enqueuedAt time.Time
	leasedAt   time.Time

	// finish resolves the job's flight exactly once: record the result,
	// publish it to every waiting sweep. The queue guarantees single
	// invocation (jobs leave the table before finish runs), which is what
	// makes double-acks and post-requeue stragglers idempotent.
	finish func(res sim.Result, err error, via string)
}

// prioBucket holds the pending lanes of one priority level: one FIFO
// lane per client plus a rotating round-robin cursor, so submitters
// sharing a priority take turns job-for-job instead of queueing behind
// whoever submitted the biggest sweep first.
type prioBucket struct {
	order []string                // clients in first-seen order (the RR ring)
	next  int                     // ring cursor: index into order of the next client to serve
	lanes map[string][]*QueuedJob // client -> FIFO lane; requeues go to the front
}

// Queue is the coupling point between sweeps and executors: runDigest
// enqueues one job per distinct digest, and the in-process pool, remote
// workers via the lease API, or both at once pop jobs and complete them. Completion is keyed by digest and
// idempotent, so a crashed worker's requeued job can be finished by its
// replacement while the original's late upload is ignored.
//
// Scheduling is priority-then-fairness: the highest priority with
// pending work is served first; within it, clients are round-robined
// one job at a time; within one client, jobs run FIFO (with requeues of
// reclaimed leases jumping to the front of that client's lane).
type Queue struct {
	mu       sync.Mutex
	lookup   func(digest string) (sim.Result, bool) // late store-hit check
	buckets  map[int]*prioBucket
	prios    []int                 // bucket keys, sorted descending
	npending int                   // jobs currently pending across all lanes
	jobs     map[string]*QueuedJob // digest -> job, pending or leased
	avail    chan struct{}         // closed+replaced when work (or shutdown) arrives
	closed   bool
	now      func() time.Time // injectable for lease-expiry tests

	requeued int64 // leases reclaimed from silent workers (Reap)
	released int64 // leases given back cooperatively (Release)

	// observeWait/observeLease, when non-nil, receive each job's pending
	// time (at lease) and lease-to-completion time (at Complete). Set once
	// before the queue is shared (NewServer wires them to the metrics
	// histograms); both are called with q.mu held, so they must not call
	// back into the queue.
	observeWait  func(time.Duration)
	observeLease func(time.Duration)
}

// newQueue builds a queue over a store-lookup function (the late-hit
// check at dispatch time; may be nil).
func newQueue(lookup func(string) (sim.Result, bool)) *Queue {
	return &Queue{
		lookup:  lookup,
		buckets: make(map[int]*prioBucket),
		jobs:    make(map[string]*QueuedJob),
		avail:   make(chan struct{}),
		now:     time.Now,
	}
}

// wakeLocked signals every waiting consumer that the queue changed.
func (q *Queue) wakeLocked() {
	close(q.avail)
	q.avail = make(chan struct{})
}

// pushLocked files a pending job into its priority bucket and client
// lane, creating both on first sight. front puts it at the head of its
// lane (requeued leases run before that client's fresh work).
func (q *Queue) pushLocked(j *QueuedJob, front bool) {
	b := q.buckets[j.Priority]
	if b == nil {
		b = &prioBucket{lanes: make(map[string][]*QueuedJob)}
		q.buckets[j.Priority] = b
		i := sort.Search(len(q.prios), func(i int) bool { return q.prios[i] < j.Priority })
		q.prios = append(q.prios, 0)
		copy(q.prios[i+1:], q.prios[i:])
		q.prios[i] = j.Priority
	}
	if _, seen := b.lanes[j.Client]; !seen {
		b.order = append(b.order, j.Client)
	}
	if front {
		b.lanes[j.Client] = append([]*QueuedJob{j}, b.lanes[j.Client]...)
	} else {
		b.lanes[j.Client] = append(b.lanes[j.Client], j)
	}
	q.npending++
	q.wakeLocked()
}

// popNextLocked removes and returns the next pending job under the
// priority-then-round-robin policy, or nil when nothing is pending.
// Every traversal walks the deterministic prios slice and each bucket's
// order ring — never a map — so the schedule is reproducible.
func (q *Queue) popNextLocked() *QueuedJob {
	for _, p := range q.prios {
		b := q.buckets[p]
		n := len(b.order)
		for i := 0; i < n; i++ {
			client := b.order[(b.next+i)%n]
			lane := b.lanes[client]
			if len(lane) == 0 {
				continue
			}
			b.lanes[client] = lane[1:]
			b.next = (b.next + i + 1) % n
			q.npending--
			return lane[0]
		}
	}
	return nil
}

// Enqueue registers a job for client at priority. The finish callback
// runs exactly once, from whichever executor completes the job (or from
// Shutdown).
func (q *Queue) Enqueue(digest, key, client string, priority int, opt sim.Options, finish func(sim.Result, error, string)) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrShuttingDown
	}
	if _, dup := q.jobs[digest]; dup {
		return fmt.Errorf("service: digest %s already queued", digest)
	}
	j := &QueuedJob{
		Digest: digest, Key: key, Opt: opt,
		Client: client, Priority: priority,
		state: statePending, finish: finish, enqueuedAt: q.now(),
	}
	q.jobs[digest] = j
	q.pushLocked(j, false)
	return nil
}

// takeLocked hands out up to max pending jobs as leases for worker,
// resolving late store hits (digests recorded since enqueue, e.g. by a
// peer process sharing the store) without wasting an executor on them.
func (q *Queue) takeLocked(worker string, max int, ttl time.Duration) []*QueuedJob {
	var out []*QueuedJob
	for len(out) < max {
		j := q.popNextLocked()
		if j == nil {
			break
		}
		if q.lookup != nil {
			if res, ok := q.lookup(j.Digest); ok {
				delete(q.jobs, j.Digest)
				q.mu.Unlock()
				j.finish(res, nil, viaStored)
				q.mu.Lock()
				continue
			}
		}
		j.state = stateLeased
		j.worker = worker
		j.ttl = ttl
		j.leasedAt = q.now()
		if worker == localWorkerID {
			j.expires = time.Time{}
		} else {
			j.expires = j.leasedAt.Add(ttl)
		}
		if q.observeWait != nil {
			q.observeWait(j.leasedAt.Sub(j.enqueuedAt))
		}
		out = append(out, j)
	}
	return out
}

// Lease blocks up to wait for work and returns at most max jobs leased to
// worker for ttl. An empty slice (no error) means the wait elapsed idle.
func (q *Queue) Lease(worker string, max int, ttl, wait time.Duration) ([]*QueuedJob, error) {
	if max < 1 {
		max = 1
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		q.mu.Lock()
		jobs := q.takeLocked(worker, max, ttl)
		// Re-checked after takeLocked: it drops the lock around store-hit
		// callbacks, and a Shutdown in that window has already failed any
		// jobs just collected — they must not go out on the wire.
		if q.closed {
			q.mu.Unlock()
			return nil, ErrShuttingDown
		}
		avail := q.avail
		q.mu.Unlock()
		if len(jobs) > 0 {
			return jobs, nil
		}
		select {
		case <-avail:
		case <-deadline.C:
			return nil, nil
		}
	}
}

// popLocal blocks until one job is available for the in-process pool. It
// returns nil once stop is closed (executor shutdown) — pending work is
// then left for other executors or for Shutdown to fail.
func (q *Queue) popLocal(stop <-chan struct{}) *QueuedJob {
	for {
		q.mu.Lock()
		jobs := q.takeLocked(localWorkerID, 1, 0)
		avail := q.avail
		q.mu.Unlock()
		if len(jobs) > 0 {
			return jobs[0]
		}
		select {
		case <-avail:
		case <-stop:
			return nil
		}
	}
}

// Complete finishes a job with its simulation outcome. Only the current
// leaseholder may complete: anything else — a second ack for an
// already-finished job, a straggler upload from a worker whose lease
// expired (the job is pending again or re-leased to someone else) —
// reports false with no side effects, which is what makes acks
// idempotent and reclamation safe against resurrected workers.
func (q *Queue) Complete(digest, worker string, res sim.Result, err error) bool {
	q.mu.Lock()
	j, ok := q.jobs[digest]
	if !ok || j.state != stateLeased || j.worker != worker {
		q.mu.Unlock()
		return false
	}
	delete(q.jobs, digest)
	if q.observeLease != nil && !j.leasedAt.IsZero() {
		q.observeLease(q.now().Sub(j.leasedAt))
	}
	q.mu.Unlock()
	via := viaRan
	if err != nil {
		via = viaFailed
	}
	j.finish(res, err, via)
	return true
}

// Release returns a leased job to the front of its client's lane
// immediately (a cooperative worker giving back jobs it will not run,
// e.g. the tail of a batch aborted by an error or a SIGTERM). Only the
// leaseholder may release; stale releases are ignored.
func (q *Queue) Release(digest, worker string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[digest]
	if !ok || j.state != stateLeased || j.worker != worker {
		return false
	}
	q.released++
	q.requeueLocked(j)
	return true
}

// requeueLocked moves a leased job back to pending, at the front of its
// client's lane so reclaimed work runs before that client's fresh work.
// Counting (requeued vs released) is the caller's: the two paths mean
// different things in /metrics.
func (q *Queue) requeueLocked(j *QueuedJob) {
	j.state = statePending
	j.worker = ""
	j.expires = time.Time{}
	j.enqueuedAt = q.now() // queue wait restarts; the lost lease is not wait
	q.pushLocked(j, true)
}

// Heartbeat extends worker's leases on the given digests to now+ttl,
// returning how many were still held (a job missing from the answer was
// reclaimed or completed — the worker should stop running it).
func (q *Queue) Heartbeat(worker string, digests []string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, d := range digests {
		if j, ok := q.jobs[d]; ok && j.state == stateLeased && j.worker == worker {
			j.expires = q.now().Add(j.ttl)
			n++
		}
	}
	return n
}

// Reap reclaims expired leases: each one goes back to the front of its
// client's lane for the next executor, and a job that has been reclaimed
// maxRequeues times fails its flight instead of circulating forever.
// It returns the number of leases reclaimed.
func (q *Queue) Reap() int {
	q.mu.Lock()
	now := q.now()
	var expired, poisoned []*QueuedJob
	for _, j := range q.jobs {
		if j.state != stateLeased || j.expires.IsZero() || now.Before(j.expires) {
			continue
		}
		if j.requeues+1 > maxRequeues {
			poisoned = append(poisoned, j)
			continue
		}
		j.requeues++
		expired = append(expired, j)
	}
	// The collection loop above visits q.jobs in map order; sort both
	// harvests by digest so requeue position and failure delivery are
	// reproducible across runs (see the detrange analyzer).
	sort.Slice(expired, func(i, k int) bool { return expired[i].Digest < expired[k].Digest })
	sort.Slice(poisoned, func(i, k int) bool { return poisoned[i].Digest < poisoned[k].Digest })
	for _, j := range poisoned {
		delete(q.jobs, j.Digest)
	}
	q.requeued += int64(len(expired))
	for _, j := range expired {
		q.requeueLocked(j)
	}
	q.mu.Unlock()
	for _, j := range poisoned {
		j.finish(sim.Result{}, fmt.Errorf("service: job %s leased %d times without completion (crashing workers?)",
			j.Digest, maxRequeues+1), viaFailed)
	}
	return len(expired)
}

// Shutdown closes the queue: pending jobs and remote-leased jobs fail
// their flights with ErrShuttingDown (a remote worker's ack after this
// point is ignored), while jobs held by the in-process pool are left to
// finish — their executor is in this process and will complete them, so
// nothing already paid for is thrown away. Idempotent.
func (q *Queue) Shutdown() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	var failed []*QueuedJob
	for _, j := range q.jobs {
		if j.state == stateLeased && j.worker == localWorkerID {
			continue
		}
		failed = append(failed, j)
		delete(q.jobs, j.Digest)
	}
	q.buckets, q.prios, q.npending = nil, nil, 0
	q.wakeLocked()
	q.mu.Unlock()
	// q.jobs was walked in map order; fail flights in digest order so
	// shutdown error delivery is reproducible.
	sort.Slice(failed, func(i, k int) bool { return failed[i].Digest < failed[k].Digest })
	for _, j := range failed {
		j.finish(sim.Result{}, ErrShuttingDown, viaFailed)
	}
}

// queueStats is a point-in-time snapshot for /metrics.
type queueStats struct {
	pending  int
	leased   int // remote leases only
	requeued int64
	released int64
}

func (q *Queue) stats() queueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := queueStats{pending: q.npending, requeued: q.requeued, released: q.released}
	for _, j := range q.jobs {
		if j.state == stateLeased && j.worker != localWorkerID {
			st.leased++
		}
	}
	return st
}
