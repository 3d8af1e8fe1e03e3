package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"sync"
	"time"

	"secddr/internal/harness"
	"secddr/internal/sim"
)

// Worker is the client half of the leasing protocol: the engine of
// cmd/secddr-worker. It leases batches of jobs from a secddr-serve
// daemon, runs them through the campaign harness's bounded pool, streams
// each result back as it finishes, heartbeats while the batch runs, and
// releases anything it will not run. Any number of workers may point at
// one server; the server's queue hands each job to exactly one of them at
// a time and reclaims leases from workers that die.
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
	// Sim substitutes the simulation entry point (tests); nil means
	// sim.Run via the harness.
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

// Run leases and executes jobs until ctx is cancelled. On cancellation
// in-flight simulations finish and their results are still uploaded (the
// paid-for work reaches the store); unstarted leases are released so the
// server re-queues them immediately instead of waiting out the TTL.
// Server errors (including restarts) are retried with backoff, so a fleet
// survives its server better than its server needs to know.
func (w *Worker) Run(ctx context.Context) error {
	id := w.id()
	backoff := time.Second
	for {
		if ctx.Err() != nil {
			return nil
		}
		resp, err := w.Client.Lease(ctx, LeaseRequest{
			WorkerID: id,
			// Lease one spare job per pool slot so the next point starts
			// without a round trip to the server.
			MaxJobs: 2 * w.workers(),
			WaitMS:  w.pollWait().Milliseconds(),
			TTLMS:   w.LeaseTTL.Milliseconds(),
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
		w.runBatch(ctx, id, resp.Jobs, time.Duration(resp.TTLMS)*time.Millisecond)
	}
}

// runBatch executes one lease batch through the harness, uploading every
// point's fate: Record posts successes, OnError posts the failing digest,
// and leftovers (unrun jobs after an abort or cancellation) are released.
func (w *Worker) runBatch(ctx context.Context, id string, jobs []WireJob, ttl time.Duration) {
	w.slog().Info("leased jobs", "worker", id, "count", len(jobs), "ttl", ttl)
	settled := make(map[string]bool, len(jobs)) // digest -> acked or released
	var mu sync.Mutex
	settle := func(d string) {
		mu.Lock()
		settled[d] = true
		mu.Unlock()
	}
	held := func() []string {
		mu.Lock()
		defer mu.Unlock()
		var out []string
		for _, j := range jobs {
			if !settled[j.Digest] {
				out = append(out, j.Digest)
			}
		}
		return out
	}

	// Heartbeat until the batch settles, on a context independent of ctx:
	// a cancelled worker still holds its leases while in-flight points
	// drain, and losing them to the reaper mid-drain would waste the work.
	hbCtx, stopHB := context.WithCancel(context.Background())
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() {
		defer hbDone.Done()
		every := ttl / 3
		if every < 100*time.Millisecond {
			every = 100 * time.Millisecond
		}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				digests := held()
				if len(digests) == 0 {
					return
				}
				if _, err := w.Client.Heartbeat(hbCtx, id, digests); err != nil {
					w.slog().Warn("heartbeat failed", "worker", id, "err", err)
				}
			}
		}
	}()

	// Uploads run on background contexts for the same reason: once a
	// simulation finished, its result should reach the server even while
	// the worker is shutting down.
	post := func(digest string, up ResultUpload) {
		upCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		accepted, err := w.Client.PostResult(upCtx, digest, up)
		if err != nil {
			w.slog().Warn("upload failed", "worker", id, "digest", digest, "err", err)
			return
		}
		settle(digest)
		w.slog().Debug("uploaded result", "worker", id, "digest", digest,
			"accepted", accepted, "failed", up.Error != "")
	}

	hjobs := make([]harness.Job, len(jobs))
	for i, j := range jobs {
		hjobs[i] = harness.Job{Key: j.Key, Opt: j.Options}
	}
	_, _, err := harness.RunContext(ctx, harness.Campaign{
		Jobs:    hjobs,
		Workers: w.workers(),
		Store:   &uploadStore{post: post, id: id},
		Sim:     w.Sim,
		OnError: func(digest string, err error) {
			post(digest, ResultUpload{WorkerID: id, Error: err.Error()})
		},
	})
	if err != nil {
		w.slog().Warn("batch aborted", "worker", id, "err", err)
	}

	// Give back whatever never ran so the server re-queues it now.
	for _, digest := range held() {
		relCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if _, err := w.Client.Release(relCtx, digest, id); err != nil {
			w.slog().Warn("release failed", "worker", id, "digest", digest, "err", err)
		}
		cancel()
		settle(digest)
	}
	stopHB()
	hbDone.Wait()
}

// uploadStore satisfies harness.Store for a lease batch: Lookup always
// misses (the server already filtered stored digests at lease time) and
// Record streams the fresh result back to the server.
type uploadStore struct {
	post func(digest string, up ResultUpload)
	id   string
}

func (s *uploadStore) Lookup(string) (sim.Result, bool) { return sim.Result{}, false }

func (s *uploadStore) Record(digest string, res sim.Result) error {
	s.post(digest, ResultUpload{WorkerID: s.id, Result: &res})
	return nil
}
