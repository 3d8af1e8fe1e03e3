package service

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"secddr/internal/harness"
	"secddr/internal/sim"
)

// maxRequeues bounds how often one job may be reclaimed from dead workers
// before it fails: a job that kills every worker it lands on (or a fleet
// that keeps crashing) must not circulate forever.
const maxRequeues = 5

// Lease-protocol bounds.
const (
	defaultLeaseTTL = 30 * time.Second
	minLeaseTTL     = time.Second
	maxLeaseTTL     = 5 * time.Minute
	maxLeaseWait    = 30 * time.Second // long-poll cap
	reapInterval    = 250 * time.Millisecond
	// workerAttachedFor is how long after its last lease/heartbeat/ack a
	// worker still counts as attached in /metrics.
	workerAttachedFor = 45 * time.Second
)

// jobState is the lifecycle of a queued job. Jobs are created pending,
// move to leased when a drain takes them, back to pending when a lease
// expires or is released, and to resolving once a successful outcome is
// being recorded in the store. A resolving job can still be joined, but
// nothing else may touch it; it leaves the queue when its outcome is
// published.
type jobState int

const (
	statePending jobState = iota
	stateLeased
	stateResolving
)

// How a job's result was produced, as Server.complete accounts for it.
const (
	viaRan    = "ran"    // a drain simulated it
	viaJoined = "joined" // the caller joined a job another sweep opened
	viaStored = "stored" // late store hit discovered at dispatch time
	viaFailed = "failed" // completed with an error, nothing to record
)

// localWorkerID marks jobs held by the in-process pool. Local leases never
// expire: the goroutine holding one cannot crash without taking the whole
// queue with it, so reclamation is meaningless. Shutdown lets the ones
// the pool started run to completion (their results still reach the
// store) and fails the rest.
const localWorkerID = "!local"

// QueuedJob is one digest awaiting its result. Digest doubles as the job
// ID on the wire: the queue never holds two jobs for one digest (Enqueue
// joins a repeat request to the open job), so lease and ack endpoints
// address jobs by it.
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
	started  bool      // the local pool is executing it (Start)
	expires  time.Time // zero for local leases
	ttl      time.Duration
	requeues int

	// enqueuedAt is when the job last became pending (Enqueue or requeue);
	// leasedAt is when the current lease was taken. The deltas feed the
	// queue-wait and lease-duration histograms.
	enqueuedAt time.Time
	leasedAt   time.Time

	// done is closed once res, err and via are final; every sweep that
	// opened or joined the job waits on it.
	done chan struct{}
	res  sim.Result
	err  error
	via  string
}

// outcome waits for j's result. A caller that joined the job sees it as
// viaJoined, whichever way the job was resolved.
func (j *QueuedJob) outcome(joined bool) (sim.Result, string, error) {
	<-j.done
	if joined {
		return j.res, viaJoined, j.err
	}
	return j.res, j.via, j.err
}

// prioBucket holds the pending lanes of one priority level: one
// non-empty FIFO lane per client plus a rotating round-robin cursor, so
// submitters sharing a priority take turns job-for-job instead of
// queueing behind whoever submitted the biggest sweep first.
type prioBucket struct {
	order []string                // clients with pending work, in arrival order (the RR ring)
	next  int                     // ring cursor: index into order of the next client to serve
	lanes map[string][]*QueuedJob // client -> FIFO lane; requeues go to the front
}

// Queue owns every digest a sweep is waiting on, from submission to
// published result: every job of a sweep opens the queue job for its
// digest or joins the one already open, and the in-process pool and
// remote workers — either or both at once — lease jobs through Lease and
// finish them through Complete.
// A fresh result is recorded in the store before the job's outcome is
// published, and the job stays open while it is recorded, so a digest is
// simulated at most once however many sweeps ask for it. Completion is
// keyed by digest and idempotent, so a crashed worker's requeued job can
// be finished by its replacement while the original's late upload is
// ignored.
//
// Scheduling is priority-then-fairness: the highest priority with
// pending work is served first; within it, clients are round-robined
// one job at a time; within one client, jobs run FIFO (with requeues of
// reclaimed leases jumping to the front of that client's lane).
type Queue struct {
	mu       sync.Mutex
	store    harness.Store  // late store hits at dispatch, fresh results at completion
	metrics  *serverMetrics // lease counters and the per-point histograms
	buckets  map[int]*prioBucket
	prios    []int                 // bucket keys, sorted descending
	npending int                   // jobs currently pending across all lanes
	jobs     map[string]*QueuedJob // digest -> open job
	avail    chan struct{}         // closed+replaced when work (or shutdown) arrives
	closed   bool
	now      func() time.Time // injectable for lease-expiry tests

	lastSeen map[string]time.Time // remote worker id -> last lease/heartbeat/ack/release
}

// newQueue builds a queue over a result store.
func newQueue(store harness.Store) *Queue {
	return &Queue{
		store:    store,
		metrics:  new(serverMetrics),
		buckets:  make(map[int]*prioBucket),
		jobs:     make(map[string]*QueuedJob),
		avail:    make(chan struct{}),
		now:      time.Now,
		lastSeen: make(map[string]time.Time),
	}
}

// wakeLocked signals every waiting consumer that the queue changed.
func (q *Queue) wakeLocked() {
	close(q.avail)
	q.avail = make(chan struct{})
}

// touchLocked records remote worker activity for the attached-workers
// gauge, pruning incarnations silent for many attach-windows so a daemon
// that outlives thousands of restarted workers (host-pid ids change every
// restart) does not grow the map forever.
func (q *Queue) touchLocked(worker string) {
	if worker == localWorkerID {
		return
	}
	now := q.now()
	q.lastSeen[worker] = now
	cutoff := now.Add(-10 * workerAttachedFor)
	for id, seen := range q.lastSeen {
		if seen.Before(cutoff) {
			delete(q.lastSeen, id)
		}
	}
}

// pushLocked files a pending job into its priority bucket and client
// lane, creating either when absent. front puts it at the head of its
// lane (requeued leases run before that client's fresh work).
func (q *Queue) pushLocked(j *QueuedJob, front bool) {
	b := q.buckets[j.Priority]
	if b == nil {
		b = &prioBucket{lanes: make(map[string][]*QueuedJob)}
		q.buckets[j.Priority] = b
		i := sort.Search(len(q.prios), func(i int) bool { return q.prios[i] < j.Priority })
		q.prios = slices.Insert(q.prios, i, j.Priority)
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
// priority-then-round-robin policy, or nil when nothing is pending: the
// head of the lane at the ring cursor of the highest priority. Only
// pending work is filed: a lane that drains leaves its ring, and a
// bucket whose ring empties leaves prios, so the daemon holds nothing
// for a client with no pending work — not its finished jobs, not a ring
// slot for every client name it ever saw. Traversal is over slices,
// never a map, so the schedule is reproducible.
func (q *Queue) popNextLocked() *QueuedJob {
	if len(q.prios) == 0 {
		return nil
	}
	b := q.buckets[q.prios[0]]
	client := b.order[b.next]
	lane := b.lanes[client]
	j := lane[0]
	lane[0] = nil
	q.npending--
	if len(lane) > 1 {
		b.lanes[client] = lane[1:]
		b.next = (b.next + 1) % len(b.order)
		return j
	}
	// The lane drained: the next client in the ring slides into its slot.
	delete(b.lanes, client)
	b.order = slices.Delete(b.order, b.next, b.next+1)
	switch {
	case len(b.order) == 0:
		delete(q.buckets, q.prios[0])
		q.prios = slices.Delete(q.prios, 0, 1)
	case b.next == len(b.order):
		b.next = 0
	}
	return j
}

// publishLocked makes j's outcome final, drops j from the table, and
// wakes every sweep waiting on it.
func (q *Queue) publishLocked(j *QueuedJob, res sim.Result, err error, via string) {
	j.res, j.err, j.via = res, err, via
	delete(q.jobs, j.Digest)
	close(j.done)
}

// Submission is one distinct digest a sweep asks the queue to resolve.
type Submission struct {
	Digest string
	Key    string
	Opt    sim.Options
}

// Enqueue opens a job for each submission on behalf of client at
// priority, or, when one is already open for the digest, joins the caller
// to it (joined[i] true). Either way the caller collects each result with
// outcome. A closed queue opens nothing new: a submission it cannot join
// gets a job already failed with ErrShuttingDown. All submissions are
// filed under one lock, so a drain woken by the first sees the rest too
// and its lease batch takes grid neighbours, which share warmups.
func (q *Queue) Enqueue(client string, priority int, subs ...Submission) (jobs []*QueuedJob, joined []bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	jobs, joined = make([]*QueuedJob, len(subs)), make([]bool, len(subs))
	for i, sub := range subs {
		if j, ok := q.jobs[sub.Digest]; ok {
			jobs[i], joined[i] = j, true
			continue
		}
		j := &QueuedJob{
			Digest: sub.Digest, Key: sub.Key, Opt: sub.Opt,
			Client: client, Priority: priority,
			state: statePending, enqueuedAt: q.now(), done: make(chan struct{}),
		}
		jobs[i] = j
		if q.closed {
			j.err, j.via = ErrShuttingDown, viaFailed
			close(j.done)
			continue
		}
		q.jobs[sub.Digest] = j
		q.pushLocked(j, false)
	}
	return jobs, joined
}

// takeLocked hands out up to max pending jobs as leases for worker,
// resolving late store hits (digests recorded since enqueue, e.g. by a
// peer process sharing the store) without wasting a drain on them.
func (q *Queue) takeLocked(worker string, max int, ttl time.Duration) []*QueuedJob {
	var out []*QueuedJob
	for len(out) < max {
		j := q.popNextLocked()
		if j == nil {
			break
		}
		if res, ok := q.store.Lookup(j.Digest); ok {
			q.publishLocked(j, res, nil, viaStored)
			continue
		}
		j.state = stateLeased
		j.worker = worker
		j.ttl = ttl
		j.leasedAt = q.now()
		if worker == localWorkerID {
			j.expires = time.Time{}
		} else {
			j.expires = j.leasedAt.Add(ttl)
			q.metrics.add(&q.metrics.leasedTotal, 1)
		}
		q.metrics.observe(&q.metrics.queueWait, j.leasedAt.Sub(j.enqueuedAt))
		out = append(out, j)
	}
	return out
}

// Lease waits for work until ctx is done and returns at most max jobs
// leased to worker for ttl (localWorkerID: never expiring). An empty
// slice with a nil error means ctx ended first; ErrShuttingDown means
// the queue is closed. Pending work is taken even under an ended ctx (a
// zero-wait poll), but a caller whose ctx ends while it waits takes
// nothing more, so a departed long-poll cannot capture the next job.
func (q *Queue) Lease(ctx context.Context, worker string, max int, ttl time.Duration) ([]*QueuedJob, error) {
	if max < 1 {
		max = 1
	}
	q.mu.Lock()
	q.touchLocked(worker)
	for {
		if q.closed {
			q.mu.Unlock()
			return nil, ErrShuttingDown
		}
		if jobs := q.takeLocked(worker, max, ttl); len(jobs) > 0 {
			q.mu.Unlock()
			return jobs, nil
		}
		avail := q.avail
		q.mu.Unlock()
		select {
		case <-avail:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			return nil, nil
		}
		q.mu.Lock()
	}
}

// Complete finishes a job with its simulation outcome; wall is the
// point's execution time, from its start to its result (zero: not
// reported). Only the current leaseholder may complete: anything else — a
// second ack for an already-finished job, a straggler upload from a
// worker whose lease expired (the job is pending again or re-leased to
// someone else) — reports false with no side effects, which is what makes
// acks idempotent and reclamation safe against resurrected workers. A
// successful result is recorded in the store before it is published;
// the job stays open meanwhile, so sweeps arriving during the record
// join it instead of running the digest again. The point is counted in
// the metrics before it is published, so a sweep's last result never
// reaches a client ahead of its sim wall time.
func (q *Queue) Complete(digest, worker string, res sim.Result, err error, wall time.Duration) bool {
	q.mu.Lock()
	q.touchLocked(worker)
	j, ok := q.jobs[digest]
	if !ok || j.state != stateLeased || j.worker != worker {
		q.mu.Unlock()
		return false
	}
	j.state = stateResolving
	leaseDur := q.now().Sub(j.leasedAt)
	q.mu.Unlock()
	m := q.metrics
	if worker != localWorkerID {
		m.add(&m.remoteDone, 1)
	}
	m.observe(&m.leaseDur, leaseDur)
	via := viaFailed
	if err == nil {
		if wall > 0 {
			m.observe(&m.simWall, wall)
		}
		// Persist before publishing, so a result a sweep has seen is never
		// lost to a crash.
		via = viaRan
		start := time.Now()
		err = q.store.Record(digest, res)
		m.observe(&m.storeFlush, time.Since(start))
	}
	q.mu.Lock()
	q.publishLocked(j, res, err, via)
	q.mu.Unlock()
	return true
}

// Start marks a job the local pool leased as executing. Starts feed the
// running gauge, and Shutdown lets a started local job finish where it
// fails an unstarted one. Remote workers report no starts.
func (q *Queue) Start(digest string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j, ok := q.jobs[digest]; ok && j.state == stateLeased && j.worker == localWorkerID {
		j.started = true
	}
}

// Release returns a leased job to the front of its client's lane
// immediately (a cooperative worker giving back jobs it will not run,
// e.g. on a SIGTERM, the jobs it leased but never started). Only the
// leaseholder may release; stale releases are ignored.
func (q *Queue) Release(digest, worker string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.touchLocked(worker)
	j, ok := q.jobs[digest]
	if !ok || j.state != stateLeased || j.worker != worker {
		return false
	}
	q.metrics.add(&q.metrics.released, 1)
	q.requeueLocked(j)
	return true
}

// requeueLocked moves a leased job back to pending, at the front of its
// client's lane so reclaimed work runs before that client's fresh work.
// A closed queue has no lanes and no drain left to run the job, so there
// the job fails with ErrShuttingDown instead. Counting (requeued vs
// released) is the caller's: the two paths mean different things in
// /metrics.
func (q *Queue) requeueLocked(j *QueuedJob) {
	if q.closed {
		q.publishLocked(j, sim.Result{}, ErrShuttingDown, viaFailed)
		return
	}
	j.state = statePending
	j.worker = ""
	j.started = false
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
	q.touchLocked(worker)
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
// client's lane for the next drain, and a job that has been reclaimed
// maxRequeues times fails instead of circulating forever. It returns the
// number of leases reclaimed.
func (q *Queue) Reap() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	var expired []*QueuedJob
	for _, j := range q.jobs {
		if j.state == stateLeased && !j.expires.IsZero() && !now.Before(j.expires) {
			expired = append(expired, j)
		}
	}
	// q.jobs was walked in map order; act in digest order so requeue
	// position and failure delivery are reproducible (see the detrange
	// analyzer).
	sort.Slice(expired, func(i, k int) bool { return expired[i].Digest < expired[k].Digest })
	n := 0
	for _, j := range expired {
		if j.requeues == maxRequeues {
			q.publishLocked(j, sim.Result{}, fmt.Errorf("service: job %s leased %d times without completion (crashing workers?)",
				j.Digest, maxRequeues+1), viaFailed)
			continue
		}
		j.requeues++
		q.requeueLocked(j)
		n++
	}
	q.metrics.add(&q.metrics.requeued, int64(n))
	return n
}

// reapLoop runs Reap every reapInterval until ctx is done.
func (q *Queue) reapLoop(ctx context.Context) {
	t := time.NewTicker(reapInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			q.Reap()
		}
	}
}

// Shutdown closes the queue: pending and remote-leased jobs fail with
// ErrShuttingDown (a remote worker's ack after this point is ignored),
// and so do jobs the in-process pool leased but has not started. Jobs
// the pool started, and jobs already recording their result, are left to
// finish — they complete in this process, so nothing already paid for is
// thrown away. Idempotent.
func (q *Queue) Shutdown() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	var failed []*QueuedJob
	for _, j := range q.jobs {
		if j.state == stateResolving || j.state == stateLeased && j.worker == localWorkerID && j.started {
			continue
		}
		failed = append(failed, j)
	}
	// Fail in digest order so shutdown error delivery is reproducible.
	sort.Slice(failed, func(i, k int) bool { return failed[i].Digest < failed[k].Digest })
	for _, j := range failed {
		q.publishLocked(j, sim.Result{}, ErrShuttingDown, viaFailed)
	}
	q.buckets, q.prios, q.npending = nil, nil, 0
	q.wakeLocked()
}

// clampTTL applies the protocol bounds to a worker-requested lease TTL.
func clampTTL(d time.Duration) time.Duration {
	switch {
	case d <= 0:
		return defaultLeaseTTL
	case d < minLeaseTTL:
		return minLeaseTTL
	case d > maxLeaseTTL:
		return maxLeaseTTL
	}
	return d
}

// queueStats is a point-in-time snapshot of the queue's gauges for
// /metrics; its counters live in the metrics record.
type queueStats struct {
	pending int
	leased  int // remote leases only
	running int // local leases the in-process pool has started
	open    int // digests with a job open: pending, leased, or resolving
	workers int // remote workers seen within the attach window
}

func (q *Queue) stats() queueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := queueStats{pending: q.npending, open: len(q.jobs)}
	for _, j := range q.jobs {
		if j.state != stateLeased {
			continue
		}
		switch {
		case j.worker != localWorkerID:
			st.leased++
		case j.started:
			st.running++
		}
	}
	cutoff := q.now().Add(-workerAttachedFor)
	for _, seen := range q.lastSeen {
		if seen.After(cutoff) {
			st.workers++
		}
	}
	return st
}
