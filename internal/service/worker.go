package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"secddr/internal/harness"
	"secddr/internal/sim"
)

// Worker is the client half of the leasing protocol: the engine of
// cmd/secddr-worker. It runs the same execution loop as the server's
// local pool for its whole life, leasing more jobs from a secddr-serve
// daemon whenever a slot would idle, streams each result back as it
// finishes (with the point's wall time), heartbeats every lease it
// holds, and releases anything it will not run. The loop keeps the
// warmed snapshot of its newest group after the group's last fork, so a
// warmup group split across two leases warms once. Any number of workers
// may point at one server; the server's queue hands each job to exactly
// one of them at a time and reclaims leases from workers that die.
type Worker struct {
	Client *Client
	// ID names this worker in leases and logs; empty means "host-pid".
	ID string
	// Workers bounds parallel simulations within this process; <= 0 means
	// GOMAXPROCS.
	Workers int
	// LeaseTTL is the lease duration to request; heartbeats run at a
	// third of it. 0 means the server default (the server clamps either
	// way).
	LeaseTTL time.Duration
	// PollWait is the lease long-poll duration; 0 means 5s.
	PollWait time.Duration
	// Sim substitutes the simulation entry point (tests); nil means the
	// harness's fork-aware simulator.
	Sim func(sim.Options) (sim.Result, error)
	// Log, when non-nil, receives structured progress events — lease
	// batches, uploads, releases — with worker and job-digest attributes,
	// so one digest's path greps out of a fleet's interleaved logs and
	// correlates with the server's events for the same digest.
	Log *slog.Logger
}

var discardLog = slog.New(slog.NewTextHandler(io.Discard, nil))

func (w *Worker) slog() *slog.Logger {
	if w.Log != nil {
		return w.Log
	}
	return discardLog
}

func (w *Worker) id() string {
	if w.ID != "" {
		return w.ID
	}
	host, err := os.Hostname()
	if err != nil {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

func (w *Worker) workers() int {
	if w.Workers > 0 {
		return w.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (w *Worker) pollWait() time.Duration {
	if w.PollWait > 0 {
		return w.PollWait
	}
	return 5 * time.Second
}

// Run leases and executes jobs until ctx is cancelled. One execution loop
// serves the whole run: it leases more whenever a slot would idle, and
// one heartbeat loop keeps every held lease alive. On cancellation
// in-flight simulations finish and their results are still uploaded (the
// paid-for work reaches the store); unstarted leases are released so the
// server re-queues them immediately instead of waiting out the TTL.
// Server errors (including restarts) are retried with backoff, so a fleet
// survives its server better than its server needs to know.
func (w *Worker) Run(ctx context.Context) error {
	id := w.id()
	held := &leaseSet{ttl: clampTTL(w.LeaseTTL), digests: make(map[string]bool)}

	// Heartbeat on a context independent of ctx: a cancelled worker still
	// holds its leases while in-flight points drain, and losing them to
	// the reaper mid-drain would waste the work.
	hbCtx, stopHB := context.WithCancel(context.Background())
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeat(hbCtx, id, held)
	}()

	// Uploads run on background contexts for the same reason: once a
	// simulation finished, its result should reach the server even while
	// the worker is shutting down. Either way the point is no longer
	// held: a failed upload releases the job, so the server re-queues it
	// (or, if the release fails too, the unrenewed lease expires).
	post := func(digest string, up ResultUpload) {
		upCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		accepted, err := w.Client.PostResult(upCtx, digest, up)
		held.drop(digest)
		if err != nil {
			w.slog().Warn("upload failed", "worker", id, "digest", digest, "err", err)
			w.release(id, digest)
			return
		}
		w.slog().Debug("uploaded result", "worker", id, "digest", digest,
			"accepted", accepted, "failed", up.Error != "")
	}
	execute(ctx, w.workers(), w.Sim, func(ctx context.Context, max int) []harness.Job {
		return w.lease(ctx, id, max, held)
	}, uploadSink{post: post, id: id})

	// Give back whatever never ran so the server re-queues it now.
	for _, digest := range held.list() {
		held.drop(digest)
		w.release(id, digest)
	}
	stopHB()
	<-hbDone
	return nil
}

// release gives the lease on digest back to the server, which re-queues
// the job.
func (w *Worker) release(id, digest string) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := w.Client.Release(ctx, digest, id); err != nil {
		w.slog().Warn("release failed", "worker", id, "digest", digest, "err", err)
	}
}

// lease is the execution loop's feed: it long-polls the server for up
// to max jobs, retrying errors with backoff, until it gets some or ctx
// ends (nil).
func (w *Worker) lease(ctx context.Context, id string, max int, held *leaseSet) []harness.Job {
	backoff := time.Second
	for ctx.Err() == nil {
		resp, err := w.Client.Lease(ctx, LeaseRequest{
			WorkerID: id,
			MaxJobs:  max,
			WaitMS:   w.pollWait().Milliseconds(),
			TTLMS:    w.LeaseTTL.Milliseconds(),
		})
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			// Leadership churn (replica failover, graceful restart) resolves
			// in seconds; don't let the backoff climb toward 30s over it.
			if (errors.Is(err, ErrNotLeader) || errors.Is(err, ErrShuttingDown)) && backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			w.slog().Warn("lease failed", "worker", id, "retry_in", backoff, "err", err)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil
			}
			if backoff < 30*time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = time.Second
		if len(resp.Jobs) == 0 {
			continue
		}
		ttl := time.Duration(resp.TTLMS) * time.Millisecond
		w.slog().Info("leased jobs", "worker", id, "count", len(resp.Jobs), "ttl", ttl)
		jobs := make([]harness.Job, len(resp.Jobs))
		held.add(resp.Jobs, ttl)
		for i, j := range resp.Jobs {
			jobs[i] = harness.Job{Key: j.Key, Opt: j.Options}
		}
		return jobs
	}
	return nil
}

// heartbeat extends every held lease at a third of the granted TTL until
// ctx ends.
func (w *Worker) heartbeat(ctx context.Context, id string, held *leaseSet) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-time.After(held.every()):
		}
		digests := held.list()
		if len(digests) == 0 {
			continue
		}
		if _, err := w.Client.Heartbeat(ctx, id, digests); err != nil && ctx.Err() == nil {
			w.slog().Warn("heartbeat failed", "worker", id, "err", err)
		}
	}
}

// leaseSet is the digests a worker holds: leased, neither acked nor
// released yet.
type leaseSet struct {
	mu      sync.Mutex
	ttl     time.Duration // the latest granted lease TTL
	digests map[string]bool
}

func (l *leaseSet) add(jobs []WireJob, ttl time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ttl = ttl
	for _, j := range jobs {
		l.digests[j.Digest] = true
	}
}

func (l *leaseSet) drop(digest string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.digests, digest)
}

// list returns the held digests, sorted.
func (l *leaseSet) list() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Sorted(maps.Keys(l.digests))
}

// every is the heartbeat interval: a third of the TTL, at least 100ms.
func (l *leaseSet) every() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return max(l.ttl/3, 100*time.Millisecond)
}

// uploadSink streams each point's fate back to the server.
type uploadSink struct {
	post func(digest string, up ResultUpload)
	id   string
}

func (uploadSink) start(string) {}

func (u uploadSink) finish(digest string, res sim.Result, err error, wall time.Duration) {
	if err != nil {
		u.post(digest, ResultUpload{WorkerID: u.id, Error: err.Error()})
		return
	}
	u.post(digest, ResultUpload{WorkerID: u.id, Result: &res, DurationMS: wallMS(wall)})
}

// wallMS rounds a point's wall time up to whole milliseconds, so every
// uploaded result carries a positive duration and the server's sim-wall
// histogram counts each executed point, however fast.
func wallMS(d time.Duration) int64 {
	return max(1, int64((d+time.Millisecond-1)/time.Millisecond))
}
