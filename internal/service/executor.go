package service

import (
	"context"
	"sync"
	"time"

	"secddr/internal/sim"
)

// Lease-protocol bounds enforced by the fleet executor.
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

// fleetExecutor is the remote side of the queue: it serves leases to
// secddr-worker processes, accepts their result uploads, and reclaims
// leases whose workers stopped heartbeating (crashed, SIGKILLed, or
// partitioned) so their jobs are re-leased to surviving workers.
type fleetExecutor struct {
	q *Queue

	mu       sync.Mutex
	lastSeen map[string]time.Time // worker id -> last lease/heartbeat/ack
	now      func() time.Time

	leasedTotal    int64 // jobs ever handed to remote workers
	remoteComplete int64 // jobs finished by a remote result upload
}

func newFleetExecutor() *fleetExecutor {
	return &fleetExecutor{lastSeen: make(map[string]time.Time), now: time.Now}
}

// startReaper retains the queue and starts the loop that reclaims
// expired leases; it stops when ctx is done.
func (f *fleetExecutor) startReaper(ctx context.Context, q *Queue) {
	f.q = q
	go func() {
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
	}()
}

// touch records worker activity for the attached-workers gauge, pruning
// incarnations silent for many attach-windows so a daemon that outlives
// thousands of restarted workers (host-pid ids change every restart)
// does not grow the map forever.
func (f *fleetExecutor) touch(worker string) {
	f.mu.Lock()
	now := f.now()
	f.lastSeen[worker] = now
	cutoff := now.Add(-10 * workerAttachedFor)
	for id, seen := range f.lastSeen {
		if seen.Before(cutoff) {
			delete(f.lastSeen, id)
		}
	}
	f.mu.Unlock()
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

// lease hands out up to max jobs to worker, long-polling up to wait.
// The caller (handleLease) has already clamped ttl to protocol bounds —
// it owns the clamp because it echoes the granted value to the worker.
func (f *fleetExecutor) lease(worker string, max int, ttl, wait time.Duration) ([]*QueuedJob, error) {
	f.touch(worker)
	if wait < 0 {
		wait = 0
	}
	if wait > maxLeaseWait {
		wait = maxLeaseWait
	}
	jobs, err := f.q.Lease(worker, max, ttl, wait)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.leasedTotal += int64(len(jobs))
	f.mu.Unlock()
	return jobs, nil
}

// complete applies one remote result upload; false means the job is no
// longer tracked (double ack or post-requeue straggler) and was ignored.
func (f *fleetExecutor) complete(worker, digest string, res sim.Result, err error) bool {
	f.touch(worker)
	ok := f.q.Complete(digest, worker, res, err)
	if ok {
		f.mu.Lock()
		f.remoteComplete++
		f.mu.Unlock()
	}
	return ok
}

// fleetStats is the /metrics snapshot of the remote fleet.
type fleetStats struct {
	attached       int
	leasedTotal    int64
	remoteComplete int64
}

func (f *fleetExecutor) stats() fleetStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := fleetStats{leasedTotal: f.leasedTotal, remoteComplete: f.remoteComplete}
	cutoff := f.now().Add(-workerAttachedFor)
	for _, seen := range f.lastSeen {
		if seen.After(cutoff) {
			st.attached++
		}
	}
	return st
}
