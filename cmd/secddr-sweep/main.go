// Command secddr-sweep runs user-defined simulation campaigns — arbitrary
// workload x mode grids, not just the paper's fixed figures — locally on
// the parallel harness or remotely against a secddr-serve daemon, with
// machine-readable output and persistent result caching.
//
// Points are cached by a digest of the full simulation options, so
// re-running a sweep (or widening its grid) only executes the points that
// are new, and an interrupted sweep (Ctrl-C flushes completed points)
// resumes where it stopped. Locally the cache is the segment result store
// named by -store (O(point) appends, safe to share between processes);
// -server submits the grid to a daemon whose store is shared by every
// client.
//
// Usage:
//
//	secddr-sweep -quick                              # Fig. 6 grid, all 29 workloads
//	secddr-sweep -modes secddr+ctr,integrity-tree -workloads mcf,lbm,pr \
//	    -out results.json -csv results.csv
//	secddr-sweep -modes all -instr 500000 -warmup 200000 -seed 7 -seed-per-job
//	secddr-sweep -modes secddr+ctr,integrity-tree -channels 4   # multi-channel DDR4
//	secddr-sweep -store sweeps.store -modes all                 # named result store
//	secddr-sweep -server http://127.0.0.1:8080 -quick           # remote execution
//	secddr-sweep -scenario thrash-one,phase-alternate -quick    # built-in scenarios
//	secddr-sweep -fidelity sampled -ci-target 0.03 -quick       # interval sampling
//	secddr-sweep -fidelity exact,sampled -workloads mcf         # cross both fidelities
//	secddr-sweep -scenario-file examples/scenarios/quick.json   # manifest scenarios
//
// Scenario sweeps (built-in names via -scenario, or JSON manifests via
// -scenario-file; see internal/scenario and examples/scenarios/) run the
// same declarative grid machinery — including -server mode, where the
// manifest definitions cross the wire and expand to identical digests.
//
// See README.md for more examples and DESIGN.md for the harness design.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"secddr/internal/harness"
	"secddr/internal/obs"
	"secddr/internal/resultstore"
	"secddr/internal/scenario"
	"secddr/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "secddr-sweep:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		modes      = flag.String("modes", "fig6", `comma-separated protection modes (see secddr-sim -list), "all", or "fig6" (the paper's five Fig. 6 configurations)`)
		workloads  = flag.String("workloads", "", `comma-separated workload subset, or "all" (default: all 29, or none when a scenario is requested)`)
		scenarios  = flag.String("scenario", "", `comma-separated built-in scenario names (see secddr-sim -list), or "all"`)
		scnFile    = flag.String("scenario-file", "", "JSON scenario manifest (see examples/scenarios/); combines with -scenario")
		quick      = flag.Bool("quick", false, "smoke scale (fast, noisier)")
		instr      = flag.Uint64("instr", 0, "override measured instructions per core")
		warmup     = flag.Uint64("warmup", 0, "override warmup instructions per core")
		channels   = flag.Int("channels", 0, "override DDR channel count on every mode (power of two; default: each mode's Table 1 value)")
		seed       = flag.Uint64("seed", 42, "base workload seed")
		fidelity   = flag.String("fidelity", "", `comma-separated execution fidelities crossed into the grid: "exact", "sampled", or both (default: exact only, unchanged digests)`)
		ciTarget   = flag.Float64("ci-target", 0, "sampled fidelity: stop each point early once IPC and bandwidth 95% CIs shrink below this fraction of their means; alone it selects -fidelity sampled, and a -fidelity list without sampled rejects it")
		seedPerJob = flag.Bool("seed-per-job", false, "derive a distinct deterministic seed per grid point")
		workers    = flag.Int("workers", 0, "parallel simulations (default GOMAXPROCS)")
		storeDir   = flag.String("store", "secddr-sweep.store", `result store directory (empty string disables caching)`)
		server     = flag.String("server", "", "submit the sweep to a secddr-serve URL instead of simulating locally")
		sweepKey   = flag.String("sweep-key", "", "idempotent submission key for -server mode: re-running with the same key and grid attaches to the running sweep instead of starting a new one (default: a key derived from the grid itself)")
		client     = flag.String("client", "", "client name for -server mode: quota accounting and fair scheduling group (default anonymous)")
		priority   = flag.Int("priority", 0, "sweep priority for -server mode: higher-priority jobs lease first (negative deprioritizes)")
		out        = flag.String("out", "", "write results as JSON to this file (- for stdout)")
		csvOut     = flag.String("csv", "", "write results as CSV to this file (- for stdout)")
		progress   = flag.Bool("progress", stderrIsTerminal(), "print live campaign progress (done/cached/forked/warmups, ETA) to stderr; defaults on when stderr is a terminal")
		version    = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(obs.Version("secddr-sweep"))
		return nil
	}

	spec := service.Spec{
		Modes:        service.ParseList(*modes),
		Workloads:    service.ParseList(*workloads),
		Scenarios:    service.ParseList(*scenarios),
		Quick:        *quick,
		InstrPerCore: *instr,
		WarmupInstr:  *warmup,
		Seed:         seed, // always explicit from the flag, 0 included
		SeedPerJob:   *seedPerJob,
		Channels:     *channels,
		Client:       *client,
		Priority:     *priority,
	}
	if *fidelity == "" && *ciTarget != 0 {
		*fidelity = "sampled" // a CI target only makes sense when sampling
	}
	if *fidelity != "" {
		spec.Fidelity = &service.FidelitySpec{
			Modes:    service.ParseList(*fidelity),
			CITarget: *ciTarget,
		}
	}
	if *scnFile != "" {
		defs, err := scenario.LoadManifest(*scnFile)
		if err != nil {
			return err
		}
		spec.ScenarioDefs = defs
	}

	// Ctrl-C stops dispatching; completed points are already flushed to
	// the cache backend, so the interrupted sweep resumes where it stopped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		outs  []harness.Outcome
		stats harness.Stats
	)
	if *server != "" {
		cl := &service.Client{BaseURL: *server}
		key := *sweepKey
		if key == "" {
			// Derived from the spec, so even unnamed submissions are
			// idempotent: a retried invocation attaches to the running
			// sweep and resumes its stream rather than duplicating it.
			var err error
			key, err = spec.DefaultKey()
			if err != nil {
				return err
			}
		}
		var err error
		outs, stats, err = cl.RunRemoteKeyed(ctx, key, spec, nil)
		if err != nil {
			return err
		}
	} else {
		grid, err := spec.Grid()
		if err != nil {
			return err
		}
		campaign := harness.Campaign{
			Jobs:    grid.Jobs(),
			Workers: *workers,
		}
		if *progress {
			campaign.Progress = progressPrinter()
		}
		if *storeDir != "" {
			store, err := resultstore.Open(*storeDir, resultstore.Options{})
			if err != nil {
				return err
			}
			defer store.Close()
			campaign.Store = store
		}
		outs, stats, err = harness.RunContext(ctx, campaign)
		if err != nil {
			return err
		}
	}
	summary := fmt.Sprintf("secddr-sweep: %d points: %d executed, %d cached, %d deduped",
		stats.Total, stats.Executed, stats.Cached, stats.Deduped)
	if stats.Recovered > 0 {
		summary += fmt.Sprintf(" (%d recovered from a restarted server)", stats.Recovered)
	}
	fmt.Fprintln(os.Stderr, summary)

	if *out == "" && *csvOut == "" {
		*out = "-" // no sink requested: JSON to stdout
	}
	if err := emit(*out, func(f *os.File) error { return harness.WriteJSON(f, outs, stats) }); err != nil {
		return err
	}
	return emit(*csvOut, func(f *os.File) error { return harness.WriteCSV(f, outs) })
}

// stderrIsTerminal reports whether stderr is a character device — the
// default gate for the live progress lines, so batch logs stay clean.
func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// progressPrinter returns a Campaign.Progress callback that prints one
// status line per second (plus the first and last events) with a
// linear-rate ETA over the points still executing. The harness reports
// counts only and stays wall-clock free; the clock lives here.
func progressPrinter() func(harness.Stats) {
	start := time.Now()
	var lastPrint time.Time // callback calls are serialized by the harness
	return func(p harness.Stats) {
		done := p.Cached + p.Executed
		now := time.Now()
		if done < p.Total && !lastPrint.IsZero() && now.Sub(lastPrint) < time.Second {
			return
		}
		lastPrint = now
		saved := p.Executed - p.Warmups // warmups avoided by snapshot sharing
		if saved < 0 {
			saved = 0
		}
		line := fmt.Sprintf("secddr-sweep: %d/%d done (%d cached, %d executed, %d forked, %d warmups saved)",
			done, p.Total, p.Cached, p.Executed, p.Forked, saved)
		if remaining := p.Total - p.Cached - p.Deduped - p.Executed; p.Executed > 0 && remaining > 0 {
			eta := time.Since(start) / time.Duration(p.Executed) * time.Duration(remaining)
			line += fmt.Sprintf(", ETA %v", eta.Round(time.Second))
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

// emit writes through fn to path ("-" = stdout, "" = skip).
func emit(path string, fn func(*os.File) error) error {
	switch path {
	case "":
		return nil
	case "-":
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
