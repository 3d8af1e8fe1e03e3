package service

import (
	"context"
	"sync"
	"time"

	"secddr/internal/harness"
	"secddr/internal/sim"
)

// batchRunner runs lease batches through the fork-aware harness. It is
// the one execution path behind both the server's local pool and
// secddr-worker. It keeps the harness carry-over between batches, so a
// warmup group split across consecutive leases warms once. It also times
// each point from the harness start hook to its result. That span is the
// one definition of per-point sim wall time: the local pool observes it
// in secddr_job_sim_wall_us, and a fleet worker reports it as
// ResultUpload.DurationMS. A warmup shared by a group is part of no
// point's time.
type batchRunner struct {
	workers int
	carry   harness.Carry
}

// pointSink receives the fate of each point of a batch, from the
// harness goroutine that ran it.
type pointSink interface {
	// start marks a point as executing.
	start(digest string)
	// finish delivers a point's result or error. wall is the point's
	// execution time; it is meaningful only for a result (a point whose
	// group warmup failed never started).
	finish(digest string, res sim.Result, err error, wall time.Duration)
}

// run executes one batch. simFn substitutes the simulator (tests); nil
// runs the built-in one. Points the batch never reaches — after an error
// or cancellation — get no finish call; the caller gives their leases
// back. The error is the harness's: the first failed point, or ctx's.
func (r *batchRunner) run(ctx context.Context, jobs []harness.Job, simFn func(sim.Options) (sim.Result, error), sink pointSink) error {
	var mu sync.Mutex
	started := make(map[string]time.Time, len(jobs))
	end := func(digest string, res sim.Result, err error) {
		mu.Lock()
		wall := time.Since(started[digest])
		mu.Unlock()
		sink.finish(digest, res, err, wall)
	}
	_, _, err := harness.RunContext(ctx, harness.Campaign{
		Jobs:    jobs,
		Workers: r.workers,
		Store:   sinkStore(end),
		Sim:     simFn,
		Carry:   &r.carry,
		OnStart: func(digest string) {
			mu.Lock()
			started[digest] = time.Now()
			mu.Unlock()
			sink.start(digest)
		},
		OnError: func(digest string, err error) { end(digest, sim.Result{}, err) },
	})
	return err
}

// sinkStore is the harness.Store of a lease batch: Lookup always misses
// (the queue already resolved store hits when it leased the jobs) and
// Record hands the fresh result to the batch's sink.
type sinkStore func(digest string, res sim.Result, err error)

func (sinkStore) Lookup(string) (sim.Result, bool) { return sim.Result{}, false }

func (f sinkStore) Record(digest string, res sim.Result) error {
	f(digest, res, nil)
	return nil
}
