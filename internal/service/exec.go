package service

import (
	"context"
	"sync"
	"time"

	"secddr/internal/harness"
	"secddr/internal/sim"
)

// pointSink receives the fate of each point the execution loop runs,
// from the harness goroutine that ran it.
type pointSink interface {
	// start marks a point as executing.
	start(digest string)
	// finish delivers a point's result or error. wall is the point's
	// execution time; it is meaningful only for a result (a point whose
	// group warmup failed never started).
	finish(digest string, res sim.Result, err error, wall time.Duration)
}

// execute is the one execution loop behind both the server's local pool
// and secddr-worker: the harness's open-feed scheduler (harness.Serve) on
// workers slots, topped up from feed whenever a slot would idle, for as
// long as the process runs. simFn substitutes the simulator (tests); nil
// runs the built-in one. execute also times each point from the harness
// start hook to its fate. That span is the one definition of per-point
// sim wall time: the local pool hands it to Queue.Complete, and a fleet
// worker reports it as ResultUpload.DurationMS, which the server hands to
// Queue.Complete in turn; Complete observes it in secddr_job_sim_wall_us.
// A warmup
// shared by a group is part of no point's time. It returns once feed runs
// dry or ctx ends and the points it started have finished; points it
// never started get no finish call.
func execute(ctx context.Context, workers int, simFn func(sim.Options) (sim.Result, error), feed harness.Feed, sink pointSink) {
	var mu sync.Mutex
	started := make(map[string]time.Time)
	harness.Serve(ctx, harness.ServeOptions{
		Workers: workers,
		Sim:     simFn,
		OnStart: func(digest string) {
			mu.Lock()
			started[digest] = time.Now()
			mu.Unlock()
			sink.start(digest)
		},
		Finish: func(digest string, res sim.Result, err error) {
			mu.Lock()
			wall := time.Since(started[digest])
			delete(started, digest)
			mu.Unlock()
			sink.finish(digest, res, err, wall)
		},
	}, feed)
}
