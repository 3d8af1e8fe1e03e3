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
// internal/resultstore's append-only segment log is the on-disk
// implementation; the fleet worker's implementation uploads each result
// to its server instead.
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
	// Sim is the simulation entry point. nil selects the built-in
	// fork-after-warmup scheduler: points whose options share a
	// sim.WarmupKey warm once and fork from the shared snapshot, which is
	// result-identical to running sim.Run per point but skips the redundant
	// warmups. Setting it (the campaign service's worker daemon and the
	// tests substitute stubs; benchmarks pass sim.Run to force cold runs)
	// uses the flat per-point pool instead.
	Sim func(sim.Options) (sim.Result, error)
	// OnError, when non-nil, observes each individual simulation failure
	// (digest, error) from the worker goroutine that hit it, in addition to
	// the campaign aborting with the first error. The fleet worker uses it
	// to report the failing point to the server while releasing the rest of
	// its lease batch; Store.Record failures are not reported here (they
	// are the caller's storage, not the point's fate).
	OnError func(digest string, err error)
	// Progress, when non-nil, observes campaign progress: once after cache
	// resolution (Pending fixed, Executed zero), then after every timed
	// warmup and every completed point. Calls are serialized under an
	// internal lock, in completion order, from worker goroutines — keep
	// the callback fast and do not call back into the campaign. The
	// harness reports counts only; wall-clock rates and ETA belong to the
	// caller (the harness itself is wall-clock free).
	Progress func(Progress)
}

// Progress is a snapshot of a running campaign's completion state.
type Progress struct {
	TotalJobs  int `json:"total_jobs"`  // jobs in the campaign
	CachedJobs int `json:"cached_jobs"` // jobs satisfied by the store at resolution
	Pending    int `json:"pending"`     // distinct points scheduled for execution
	Executed   int `json:"executed"`    // pending points completed so far
	Forked     int `json:"forked"`      // points satisfied by forking a shared warmed snapshot
	Warmups    int `json:"warmups"`     // timed warmup phases run so far
}

// progressTracker accumulates Progress and serializes the callback.
type progressTracker struct {
	mu sync.Mutex
	fn func(Progress)
	p  Progress
}

func (t *progressTracker) emit() {
	if t.fn != nil {
		t.fn(t.p)
	}
}

func (t *progressTracker) resolved(total, cached, pending int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.p.TotalJobs, t.p.CachedJobs, t.p.Pending = total, cached, pending
	t.emit()
}

func (t *progressTracker) warmup() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.p.Warmups++
	t.emit()
}

func (t *progressTracker) executed(forked bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.p.Executed++
	if forked {
		t.p.Forked++
	}
	t.emit()
}

func (t *progressTracker) snapshot() Progress {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.p
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

// Stats summarizes how a campaign was satisfied.
type Stats struct {
	Total    int `json:"total"`    // jobs requested
	Executed int `json:"executed"` // simulations actually run
	Cached   int `json:"cached"`   // jobs served from the store
	Deduped  int `json:"deduped"`  // jobs served by an identical job in the same batch
	// Forked counts executed points satisfied by forking a shared warmed
	// snapshot, and Warmups the timed warmup phases actually run; both are
	// zero when a substituted Sim bypasses the fork scheduler. Executed -
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
	// digest that the store cannot satisfy.
	digests := make([]string, len(c.Jobs))
	cached := make(map[string]sim.Result)
	pending := make(map[string]sim.Options)
	keyOf := make(map[string]string) // digest -> job key, for error labels
	var order []string               // deterministic dispatch order
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
		if _, ok := pending[d]; ok {
			stats.Deduped++
			continue
		}
		pending[d] = j.Opt
		keyOf[d] = j.Key
		order = append(order, d)
	}

	executed := make(map[string]sim.Result, len(order))
	var (
		mu       sync.Mutex
		firstErr error
	)
	prog := &progressTracker{fn: c.Progress}
	prog.resolved(stats.Total, stats.Cached, len(order))
	if c.Sim == nil {
		// Built-in simulator: the fork-after-warmup scheduler shares one
		// warmup per snapshot group (forksched.go).
		c.runForked(ctx, order, pending, keyOf, store, executed, &mu, &firstErr, prog)
	} else {
		c.runFlat(ctx, order, pending, keyOf, store, executed, &mu, &firstErr, prog)
	}
	stats.Executed = len(executed)
	p := prog.snapshot()
	stats.Forked, stats.Warmups = p.Forked, p.Warmups
	if firstErr != nil {
		return nil, stats, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, fmt.Errorf("harness: campaign interrupted (%d/%d points recorded): %w",
			stats.Cached+len(executed), stats.Total, err)
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
		outs[i] = Outcome{
			Key:      j.Key,
			Workload: j.Opt.WorkloadName(),
			Mode:     j.Opt.Config.Security.Mode.String(),
			Digest:   d,
			Cached:   fromCache,
			Result:   res,
		}
	}
	return outs, stats, nil
}
