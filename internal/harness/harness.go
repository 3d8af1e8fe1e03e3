// Package harness runs simulation campaigns: batches of (workload,
// configuration) points executed on a bounded worker pool with
// digest-keyed result caching.
//
// A campaign is a flat list of Jobs, usually expanded from a declarative
// Grid (workload x configuration cross product). Run schedules the jobs on
// GOMAXPROCS workers, deduplicates identical simulation points within the
// batch, and — when a Store is set — skips every point whose digest is
// already recorded, persisting each new result as it completes so an
// interrupted sweep resumes where it stopped. Results come back in job
// order as Outcomes, ready for the JSON/CSV emitters in emit.go or for the
// figure formatters in internal/experiments, which is itself a set of thin
// grid definitions over this package.
//
// Caching is sound because the simulator is deterministic: a point's
// digest (sim.Options.Digest) covers the full configuration, the workload
// profile, the instruction counts, and the seed, so equal digests imply
// byte-identical results. See DESIGN.md, "The experiment harness".
package harness

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"

	"secddr/internal/config"
	"secddr/internal/scenario"
	"secddr/internal/sim"
	"secddr/internal/trace"
)

// Store is a persistent digest-keyed result cache behind a campaign.
// Lookup returns the recorded result for a digest, if any; Record persists
// a fresh result. Implementations must be safe for concurrent use: the
// worker pool records results from many goroutines, and several processes
// may share one store. Caching through a Store is sound for the same reason
// the in-batch dedup is: equal digests imply byte-identical results
// (sim.Options.Digest covers everything result-relevant).
//
// internal/resultstore's append-only segment log is the one
// implementation outside tests: secddr-sweep and secddr-figures pass it
// to campaigns, and a sweep server's queue records each fresh result in
// it before publishing the result. A fleet worker has no Store; it
// uploads each point's result to its server, which records it.
type Store interface {
	Lookup(digest string) (sim.Result, bool)
	Record(digest string, res sim.Result) error
}

// noStore is the cache of a campaign without a Store: nothing is ever
// found, nothing is kept.
type noStore struct{}

func (noStore) Lookup(string) (sim.Result, bool) { return sim.Result{}, false }
func (noStore) Record(string, sim.Result) error  { return nil }

// Job is one simulation point of a campaign.
type Job struct {
	// Key is the caller-facing result name, e.g. "mcf/secddr+ctr". Keys
	// should be unique within a campaign; the last outcome wins in Index.
	Key string
	// Opt fully determines the simulation (and the cache digest).
	Opt sim.Options
}

// NamedConfig pairs a configuration with its display label.
type NamedConfig struct {
	Label  string
	Config config.Config
}

// Grid declares a workload x configuration sweep. It is the declarative
// form the experiment figures and cmd/secddr-sweep are written in.
type Grid struct {
	Workloads []trace.Profile
	// Scenarios are multi-core, phase-structured workloads (see
	// internal/scenario) swept against the same Configs; their jobs follow
	// the profile jobs, keyed "scenario-name/label".
	Scenarios []scenario.Scenario
	Configs   []NamedConfig

	InstrPerCore uint64
	WarmupInstr  uint64
	Seed         uint64

	// Fidelities is the execution-fidelity axis: every (workload, config)
	// point is swept once per entry. Empty means one exact pass with keys
	// unchanged, as does a single exact entry; with more than one entry
	// keys gain a "/<fidelity label>" suffix so exact and sampled rows of
	// the same point stay distinct. Fidelity is part of sim.Options.Digest,
	// so the cache and the fork scheduler already treat differing
	// fidelities as distinct points — while WarmupKey excludes it, so a
	// sampled and an exact run of the same point still share one warmup.
	Fidelities []sim.Fidelity

	// SeedPerJob derives a distinct deterministic seed for every job from
	// Seed and the job key (DeriveSeed). The paper's figures keep one shared
	// seed so every configuration sees the identical address stream; sweeps
	// that want independent trials per point set this.
	SeedPerJob bool
}

// Jobs expands the grid in deterministic workload-major order: profile
// jobs first, then scenario jobs, each workload crossed with every config,
// each of those with every fidelity.
func (g Grid) Jobs() []Job {
	fids := g.Fidelities
	if len(fids) == 0 {
		fids = []sim.Fidelity{{}} // exact
	}
	jobs := make([]Job, 0, (len(g.Workloads)+len(g.Scenarios))*len(g.Configs)*len(fids))
	add := func(name string, opt sim.Options) {
		for _, nc := range g.Configs {
			for _, fid := range fids {
				key := name + "/" + nc.Label
				if len(fids) > 1 {
					key += "/" + fid.Label()
				}
				seed := g.Seed
				if g.SeedPerJob {
					seed = DeriveSeed(g.Seed, key)
				}
				opt.Config = nc.Config
				opt.Seed = seed
				opt.Fidelity = fid
				jobs = append(jobs, Job{Key: key, Opt: opt})
			}
		}
	}
	base := sim.Options{InstrPerCore: g.InstrPerCore, WarmupInstr: g.WarmupInstr}
	for _, p := range g.Workloads {
		opt := base
		opt.Workload = p
		add(p.Name, opt)
	}
	for _, s := range g.Scenarios {
		opt := base
		opt.Scenario = s
		add(s.Name, opt)
	}
	return jobs
}

// DeriveSeed maps (base seed, job key) to a per-job seed, deterministically
// across processes (FNV-1a over the base and the key).
func DeriveSeed(base uint64, key string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], base)
	h.Write(b[:])
	h.Write([]byte(key))
	return h.Sum64()
}

// Campaign is a batch of jobs plus execution policy.
type Campaign struct {
	Jobs []Job
	// Workers bounds the pool; <= 0 means GOMAXPROCS.
	Workers int
	// Store, when non-nil, is the persistent result cache: points already
	// recorded there are skipped, and each new result is recorded as it
	// completes, so an interrupted campaign resumes from where it stopped.
	// Nil means no persistence.
	Store Store
	// Sim, when non-nil, replaces the simulator. Nil runs the built-in one
	// with fork-after-warmup: points whose options share a sim.WarmupKey
	// warm once and fork from the shared snapshot, which is result-identical
	// to running sim.Run per point but skips the redundant warmups. A
	// substituted Sim cannot fork, so every point is its own group and runs
	// through Sim on the same scheduler (tests substitute stubs; benchmarks
	// pass sim.Run to force cold runs), and Stats.Forked and Stats.Warmups
	// stay zero.
	Sim func(sim.Options) (sim.Result, error)
	// Progress, when non-nil, observes the campaign's Stats as they grow:
	// once after cache resolution (Total, Cached and Deduped final,
	// Executed zero), then after every timed warmup and every completed
	// point; the last call carries the Stats Run returns. Calls are
	// serialized under an internal lock, in completion order, from worker
	// goroutines — keep the callback fast and do not call back into the
	// campaign. The harness reports counts only; wall-clock rates and ETA
	// belong to the caller (the harness itself is wall-clock free).
	Progress func(Stats)
}

// progressTracker accumulates a campaign's Stats and serializes the
// Progress callback.
type progressTracker struct {
	mu sync.Mutex
	fn func(Stats)
	st Stats
}

// update applies fn to the tracked Stats and reports the result.
func (t *progressTracker) update(fn func(*Stats)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fn(&t.st)
	if t.fn != nil {
		t.fn(t.st)
	}
}

func (t *progressTracker) warmup() { t.update(func(st *Stats) { st.Warmups++ }) }

func (t *progressTracker) snapshot() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.st
}

func (c Campaign) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Outcome is one job's result with its provenance.
type Outcome struct {
	Key      string     `json:"key"`
	Workload string     `json:"workload"`
	Mode     string     `json:"mode"`
	Digest   string     `json:"digest"`
	Cached   bool       `json:"cached"`
	Result   sim.Result `json:"result"`
}

// Outcome is j's outcome: its result res under digest, cached when no
// simulation ran for it here.
func (j Job) Outcome(digest string, cached bool, res sim.Result) Outcome {
	return Outcome{
		Key:      j.Key,
		Workload: j.Opt.WorkloadName(),
		Mode:     j.Opt.Config.Security.Mode.String(),
		Digest:   digest,
		Cached:   cached,
		Result:   res,
	}
}

// Stats summarizes how a campaign was satisfied.
type Stats struct {
	Total    int `json:"total"`    // jobs requested
	Executed int `json:"executed"` // simulations actually run
	Cached   int `json:"cached"`   // jobs served from the store
	Deduped  int `json:"deduped"`  // jobs served by an identical job in the same batch
	// Forked counts executed points satisfied by forking a shared warmed
	// snapshot, and Warmups the timed warmup phases actually run; both are
	// zero when a substituted Sim runs every point on its own. Executed -
	// Warmups is the number of warmups the scheduler saved.
	Forked  int `json:"forked"`
	Warmups int `json:"warmups"`
	// Recovered counts jobs whose completions were replayed from a sweep
	// server's WAL at boot instead of executed or cache-checked in this
	// process; always zero for local campaigns. omitempty keeps it out of
	// reports that never involved a recovery, so their JSON is unchanged.
	Recovered int `json:"recovered,omitempty"`
}

// Index collapses outcomes to a key -> result map.
func Index(outs []Outcome) map[string]sim.Result {
	m := make(map[string]sim.Result, len(outs))
	for _, o := range outs {
		m[o.Key] = o.Result
	}
	return m
}

// Run executes the campaign and returns outcomes in job order. On a
// simulation error it stops dispatching, waits for in-flight work (whose
// results still reach the store), and returns the first error.
func Run(c Campaign) ([]Outcome, Stats, error) {
	return RunContext(context.Background(), c)
}

// RunContext is Run with cancellation. When ctx is cancelled the harness
// stops dispatching new points, waits for in-flight simulations to finish
// (their results still reach the store, so nothing already paid for is
// lost and no write is torn), and returns ctx's error. secddr-sweep and
// secddr-serve wire SIGINT to this.
func RunContext(ctx context.Context, c Campaign) ([]Outcome, Stats, error) {
	stats := Stats{Total: len(c.Jobs)}

	store := c.Store
	if store == nil {
		store = noStore{}
	}

	// Resolve each job to a digest; schedule one execution per distinct
	// digest that the store cannot satisfy, in job order.
	prog := &progressTracker{fn: c.Progress}
	s := c.sched(prog)
	digests := make([]string, len(c.Jobs))
	cached := make(map[string]sim.Result)
	pending := make(map[string]bool)
	var pts []point
	for i, j := range c.Jobs {
		d := j.Opt.Digest()
		digests[i] = d
		if _, seen := cached[d]; seen {
			stats.Cached++
			continue
		}
		if res, ok := store.Lookup(d); ok {
			cached[d] = res
			stats.Cached++
			continue
		}
		if pending[d] {
			stats.Deduped++
			continue
		}
		pending[d] = true
		pts = append(pts, s.point(j, d))
	}
	prog.update(func(st *Stats) { *st = stats })

	// The first error aborts: no new point starts, in-flight ones finish
	// and still reach the store.
	runCtx, abort := context.WithCancel(ctx)
	defer abort()
	var (
		mu       sync.Mutex // guards executed and firstErr
		executed = make(map[string]sim.Result, len(pts))
		firstErr error
	)
	s.finish = func(p point, res sim.Result, err error, forked bool) {
		if err == nil {
			// The store has its own lock, so disk flushes never
			// serialize result collection under mu.
			err = store.Record(p.digest, res)
		}
		mu.Lock()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", p.Key, err)
				abort()
			}
		} else {
			executed[p.digest] = res
		}
		mu.Unlock()
		if err == nil {
			prog.update(func(st *Stats) {
				st.Executed++
				if forked {
					st.Forked++
				}
			})
		}
	}
	s.run(runCtx, pts, nil)
	stats = prog.snapshot()
	if firstErr != nil {
		return nil, stats, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, fmt.Errorf("harness: campaign interrupted (%d/%d points recorded): %w",
			stats.Cached+stats.Executed, stats.Total, err)
	}

	outs := make([]Outcome, len(c.Jobs))
	for i, j := range c.Jobs {
		d := digests[i]
		res, fromCache := cached[d]
		if !fromCache {
			var ok bool
			if res, ok = executed[d]; !ok {
				return nil, stats, fmt.Errorf("harness: job %q produced no result", j.Key)
			}
		}
		outs[i] = j.Outcome(d, fromCache, res)
	}
	return outs, stats, nil
}

// ServeOptions configures Serve.
type ServeOptions struct {
	// Workers bounds parallel simulations; <= 0 means GOMAXPROCS.
	Workers int
	// Sim substitutes the simulation entry point, as Campaign.Sim does;
	// nil means the fork-aware built-in.
	Sim func(sim.Options) (sim.Result, error)
	// OnStart, when non-nil, observes each point as it starts executing,
	// from the worker goroutine about to run it: just before its fork, or
	// before its cold run when it runs alone. A warmup shared by a group
	// belongs to no single point and is not announced. Together with
	// Finish, which sees the point end, it brackets one point's execution
	// for callers that time it.
	OnStart func(digest string)
	// Finish receives each executed point's result or error, from the
	// goroutine that ran it.
	Finish func(digest string, res sim.Result, err error)
}

// Serve runs jobs from feed through the campaign scheduler until the feed
// runs dry or ctx ends: the execution loop of a process that works
// through a stream of leased jobs, a sweep server's local pool or a fleet
// worker. It asks the feed for more whenever a slot would otherwise wait
// (no fork is ready and no group is left to warm), for two jobs per slot
// minus those held but not started, and asks nothing while that is zero.
// A job joins the snapshot group of its WarmupKey while that group is
// warming or live, and the newest group's snapshot outlives its last fork
// until a newer group opens, so a warmup group split across top-ups
// warms once.
//
// Every point Serve executes ends in one o.Finish call: a failed point
// ends alone, and a failed warmup fails each member of its group. The
// feed may repeat a digest Serve still holds; the repeat is dropped.
// Once ctx ends no point starts; started ones finish, and Serve returns.
// Jobs it held but never started get no Finish call: what becomes of
// them is the caller's business.
func Serve(ctx context.Context, o ServeOptions, feed Feed) {
	s := Campaign{Workers: o.Workers, Sim: o.Sim}.sched(&progressTracker{})
	s.onStart = o.OnStart
	s.finish = func(p point, res sim.Result, err error, _ bool) {
		o.Finish(p.digest, res, err)
	}
	s.run(ctx, nil, feed)
}
