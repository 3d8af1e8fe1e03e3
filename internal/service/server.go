package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"secddr/internal/harness"
	"secddr/internal/obs"
	"secddr/internal/resultstore"
	"secddr/internal/sim"
)

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// ServerOptions tunes a sweep server. The zero value is usable.
type ServerOptions struct {
	// Workers sizes the in-process execution pool: 0 means GOMAXPROCS,
	// a negative value disables local execution entirely — the server
	// then only queues work for remote secddr-worker processes
	// (fleet-only mode).
	Workers int
	// BaseContext, when non-nil, bounds the lifetime of background sweep
	// execution: once it is cancelled no new simulation starts.
	BaseContext context.Context
	// Log, when non-nil, receives structured progress events — sweep
	// lifecycle, job failures, remote uploads — each carrying its sweep id
	// and/or job digest as attributes so one job's history greps out of
	// interleaved server and worker logs. Nil discards them.
	Log *slog.Logger

	// WAL, when non-nil, makes sweeps durable: specs, completions, and
	// terminal states are logged so Recover() on a fresh server over the
	// same store resumes interrupted sweeps. Nil keeps the pre-WAL
	// in-memory behavior (tests, embedded use).
	WAL *WAL
	// MaxJobsPerClient caps one client's outstanding (not yet completed)
	// jobs across its running sweeps; a submission that would exceed it
	// fails with ErrQuotaExceeded. 0 means unlimited.
	MaxJobsPerClient int

	// runSim, when non-nil, substitutes the local pool's simulator (the
	// harness's ServeOptions.Sim); tests pass a counting or blocking stub.
	// Nil runs the fork-aware simulator.
	runSim func(sim.Options) (sim.Result, error)
}

// Server runs sweep campaigns behind an HTTP API. All sweeps share one
// result store and one job queue: a digest being simulated for any client
// is never simulated again for another — late arrivals join its open job
// (singleflight dedup), regardless of whether the job executes on the
// in-process pool or on a remote worker that leased it.
//
// With a WAL attached (ServerOptions.WAL), submissions survive the
// process: Recover() replays the directory's logs, counts completions
// whose results the store still holds as done, and re-enqueues only the
// remainder.
type Server struct {
	store        harness.Store
	queue        *Queue
	localWorkers int                // 0 in fleet-only mode
	stopExec     context.CancelFunc // stops the local pool and the lease reaper
	metrics      *serverMetrics     // latency histograms served by /metrics
	log          *slog.Logger       // structured progress; a discard logger when unset
	wal          *WAL               // nil: ephemeral sweeps
	maxPerClient int

	mu      sync.Mutex
	sweeps  map[string]*sweep
	running sync.WaitGroup // one per background runSweep

	// Cumulative counters served by /metrics.
	simsExecuted    int64 // simulations actually run
	jobsCached      int64 // jobs served straight from the store
	jobsDeduped     int64 // jobs that joined an in-flight or in-batch digest
	sweepsTotal     int64
	sweepsRecovered int64 // sweeps resumed from the WAL at boot
	walReplayed     int64 // WAL records replayed at boot
	quotaRejected   int64 // submissions rejected by the per-client quota
}

// NewServer builds a sweep server over a result store and starts draining
// its queue: the local pool (unless opt.Workers < 0) and the remote
// fleet's lease surface both take jobs from it.
func NewServer(store harness.Store, opt ServerOptions) *Server {
	workers := opt.Workers
	if workers == 0 {
		workers = defaultWorkers()
	}
	if workers < 0 {
		workers = 0
	}
	base := opt.BaseContext
	if base == nil {
		base = context.Background()
	}
	// Execution stops on BaseContext *or* Shutdown, whichever comes first,
	// so a library user without a BaseContext still gets their goroutines
	// (pool + reaper) back by calling Shutdown.
	execCtx, stopExec := context.WithCancel(base)
	logger := opt.Log
	if logger == nil {
		logger = discardLog
	}
	q := newQueue(store)
	s := &Server{
		store:        store,
		queue:        q,
		localWorkers: workers,
		stopExec:     stopExec,
		metrics:      q.metrics,
		log:          logger,
		wal:          opt.WAL,
		maxPerClient: opt.MaxJobsPerClient,
		sweeps:       make(map[string]*sweep),
	}
	go q.reapLoop(execCtx)
	if workers > 0 {
		go s.runPool(execCtx, workers, opt.runSim)
	}
	// Whichever way execution stops — BaseContext cancelled or Shutdown
	// called — the queue must close with it, so sweeps blocked on queued
	// work fail with ErrShuttingDown instead of waiting on a pool and a
	// fleet that no longer take work (cancelling BaseContext stops new
	// simulations promptly).
	go func() {
		<-execCtx.Done()
		s.queue.Shutdown()
	}()
	return s
}

// runPool is the in-process pool: the execution loop on workers slots,
// fed by never-expiring local leases. It exits on ctx cancellation or
// queue shutdown, once the points it started have finished; Shutdown
// fails the jobs it leased but never started.
func (s *Server) runPool(ctx context.Context, workers int, simFn func(sim.Options) (sim.Result, error)) {
	execute(ctx, workers, simFn, func(ctx context.Context, max int) []harness.Job {
		leased, err := s.queue.Lease(ctx, localWorkerID, max, 0)
		if err != nil {
			return nil
		}
		jobs := make([]harness.Job, len(leased))
		for i, j := range leased {
			jobs[i] = harness.Job{Key: j.Key, Opt: j.Opt}
		}
		return jobs
	}, localSink{s})
}

// localSink completes the local pool's points on the queue.
type localSink struct{ s *Server }

func (l localSink) start(digest string) { l.s.queue.Start(digest) }

func (l localSink) finish(digest string, res sim.Result, err error, wall time.Duration) {
	if err == nil {
		l.s.metrics.observeSimWall(wall)
	}
	l.s.queue.Complete(digest, localWorkerID, res, err)
}

// Shutdown stops execution for good: remote workers can no longer lease,
// every pending or remote-leased job fails with ErrShuttingDown, as does
// every job the in-process pool leased but has not started; jobs the pool
// already started run to completion (their results still reach the
// store), and the pool and lease-reaper goroutines exit. Call
// it before Drain so sweeps blocked on unacked remote work fail promptly
// instead of waiting on workers that may never answer.
//
// With a WAL attached, sweeps failed by ErrShuttingDown keep their WAL
// entry open (no terminal record), so the next boot over the same store
// resumes them — graceful shutdown and SIGKILL converge on the same
// recovery path.
func (s *Server) Shutdown() {
	s.queue.Shutdown()
	s.stopExec()
}

// sweepState is the lifecycle of one submitted sweep.
type sweepState string

const (
	stateRunning sweepState = "running"
	stateDone    sweepState = "done"
	stateFailed  sweepState = "failed"
)

// sweep is one submitted campaign and its accumulating results.
type sweep struct {
	id       string
	key      string // client-supplied submission key
	client   string
	priority int
	total    int
	started  time.Time

	mu      sync.Mutex
	results []StreamItem // completion order; streamed as NDJSON
	nextSeq int          // next stream sequence number to assign (starts at 1)
	stats   harness.Stats
	state   sweepState
	errMsg  string
	failErr error         // first job failure (errors.Is-able; errMsg is its text)
	changed chan struct{} // closed and replaced on every mutation
}

func newSweep(id, key, client string, priority, total int) *sweep {
	sw := &sweep{
		id: id, key: key, client: client, priority: priority,
		total:   total,
		started: time.Now(),
		state:   stateRunning,
		nextSeq: 1,
		changed: make(chan struct{}),
	}
	sw.stats.Total = total
	return sw
}

// SweepStatus is the GET /v1/sweeps/{id} document. ElapsedMS counts from
// submission (or recovery); EtaMS is the linear-rate projection of the
// time remaining, present only while the sweep is running and at least
// one point has finished (cached points complete instantly, so early
// estimates skew optimistic and converge as executed points land).
type SweepStatus struct {
	ID        string        `json:"id"`
	Key       string        `json:"key,omitempty"`
	State     string        `json:"state"` // running | done | failed
	Total     int           `json:"total"`
	Done      int           `json:"done"`
	Stats     harness.Stats `json:"stats"`
	ElapsedMS int64         `json:"elapsed_ms"`
	EtaMS     int64         `json:"eta_ms,omitempty"`
	Error     string        `json:"error,omitempty"`
}

// SubmitResponse is the PUT /v1/sweeps/{key} answer. Attached reports
// that the (key, spec) pair matched an already-registered sweep and the
// request joined it instead of starting a duplicate.
type SubmitResponse struct {
	ID         string `json:"id"`
	Key        string `json:"key,omitempty"`
	Total      int    `json:"total"`
	Attached   bool   `json:"attached,omitempty"`
	StatusURL  string `json:"status_url"`
	ResultsURL string `json:"results_url"`
}

// notifyLocked wakes every streamer waiting on this sweep.
func (sw *sweep) notifyLocked() {
	close(sw.changed)
	sw.changed = make(chan struct{})
}

func (sw *sweep) status() SweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	st := SweepStatus{
		ID:        sw.id,
		Key:       sw.key,
		State:     string(sw.state),
		Total:     sw.total,
		Done:      len(sw.results),
		Stats:     sw.stats,
		ElapsedMS: time.Since(sw.started).Milliseconds(),
		Error:     sw.errMsg,
	}
	if sw.state == stateRunning && st.Done > 0 && st.Done < st.Total {
		st.EtaMS = st.ElapsedMS * int64(st.Total-st.Done) / int64(st.Done)
	}
	return st
}

// SubmitKeyed validates a spec and registers the sweep under the
// client-supplied key. The sweep ID derives from (key, spec), so
// re-submitting the same pair — a client retry after a crash on either
// side — attaches to the existing sweep (attached=true) instead of
// starting a duplicate. With a WAL attached the submission is logged
// before execution starts, making it durable across server restarts.
func (s *Server) SubmitKeyed(key string, spec Spec) (*sweep, bool, error) {
	if err := validateSweepKey(key); err != nil {
		return nil, false, err
	}
	id, err := SweepID(key, spec)
	if err != nil {
		return nil, false, err
	}
	grid, err := spec.Grid()
	if err != nil {
		return nil, false, err
	}
	jobs := grid.Jobs()
	if len(jobs) == 0 {
		return nil, false, fmt.Errorf("service: sweep expands to zero jobs")
	}

	s.mu.Lock()
	if sw, ok := s.sweeps[id]; ok {
		s.mu.Unlock()
		s.log.Info("sweep re-submitted, attaching", "sweep", id, "key", key)
		return sw, true, nil
	}
	if s.maxPerClient > 0 {
		outstanding := 0
		for _, other := range s.sweeps { //lint:detrange-ok summation under a lock is order-insensitive
			if other.client != spec.Client {
				continue
			}
			other.mu.Lock()
			if other.state == stateRunning {
				outstanding += other.total - len(other.results)
			}
			other.mu.Unlock()
		}
		if outstanding+len(jobs) > s.maxPerClient {
			s.quotaRejected++
			s.mu.Unlock()
			return nil, false, fmt.Errorf("%w: client %q has %d jobs outstanding, sweep adds %d, quota is %d",
				ErrQuotaExceeded, spec.Client, outstanding, len(jobs), s.maxPerClient)
		}
	}
	sw := newSweep(id, key, spec.Client, spec.Priority, len(jobs))
	s.sweeps[id] = sw
	s.sweepsTotal++
	s.running.Add(1)
	s.mu.Unlock()

	if s.wal != nil {
		raw, err := json.Marshal(spec)
		if err == nil {
			err = s.wal.Append(walRecord{Type: walSweepRec, Sweep: id, Key: key, Spec: raw})
		}
		if err != nil {
			// Durability degrades, the live sweep still runs.
			s.log.Error("WAL sweep record failed", "sweep", id, "err", err)
		}
	}

	s.log.Info("sweep submitted", "sweep", id, "key", key, "client", spec.Client,
		"priority", spec.Priority, "jobs", len(jobs))
	go func() {
		defer s.running.Done()
		s.runSweep(sw, jobs)
	}()
	return sw, false, nil
}

// Recover replays every WAL file in the store directory (except this
// server's own), reconciles recorded completions against the result
// store, and resumes unfinished sweeps: completions whose results the
// store holds are replayed into the result stream under their original
// sequence numbers, and only the remaining jobs are re-enqueued — so a
// SIGKILLed server's sweeps finish with zero lost and zero re-executed
// digests. Terminal sweeps are re-registered read-only so clients can
// still fetch their status and streams. Call it once, after NewServer
// and before serving traffic. It returns the number of sweeps resumed.
func (s *Server) Recover() (int, error) {
	if s.wal == nil {
		return 0, nil
	}
	replayed, nrec, err := ReplayWAL(s.wal.Dir(), s.wal.Name())
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.walReplayed = int64(nrec)
	s.mu.Unlock()
	if len(replayed) == 0 {
		return 0, nil
	}

	// Deterministic recovery order (the replay map is keyed by sweep id).
	ids := make([]string, 0, len(replayed))
	for id := range replayed {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	resumed := 0
	for _, id := range ids {
		ws := replayed[id]
		if ws.Spec == nil {
			// The sweep record itself was in a torn tail: nothing to
			// re-derive the job set from. The submitting client's keyed
			// retry will start it over.
			s.log.Warn("WAL has completions but no spec; skipping", "sweep", id)
			continue
		}
		var spec Spec
		if err := json.Unmarshal(ws.Spec, &spec); err != nil {
			s.log.Warn("WAL spec does not decode; skipping", "sweep", id, "err", err)
			continue
		}
		grid, err := spec.Grid()
		if err != nil {
			s.log.Warn("WAL spec no longer expands; skipping", "sweep", id, "err", err)
			continue
		}
		jobs := grid.Jobs()
		sw := newSweep(id, ws.Key, spec.Client, spec.Priority, len(jobs))
		sw.nextSeq = ws.maxSeq() + 1 // never reuse a seq a client may have consumed

		jobByKey := make(map[string]harness.Job, len(jobs))
		for _, j := range jobs {
			jobByKey[j.Key] = j
		}
		seqs := make([]int, 0, len(ws.Done))
		for seq := range ws.Done {
			seqs = append(seqs, seq)
		}
		sort.Ints(seqs)
		replayedKeys := make(map[string]bool, len(seqs))
		for _, seq := range seqs {
			rec := ws.Done[seq]
			j, ok := jobByKey[rec.JobKey]
			if !ok || replayedKeys[rec.JobKey] {
				continue
			}
			res, ok := s.store.Lookup(rec.Digest)
			if !ok {
				// The WAL promised a completion the store cannot back
				// (its segment lost the record's tail): drop the claim,
				// the job re-runs and re-completes under a fresh seq.
				s.log.Warn("WAL completion without stored result; job re-runs",
					"sweep", id, "key", rec.JobKey, "digest", rec.Digest)
				continue
			}
			sw.results = append(sw.results, StreamItem{
				Seq: rec.Seq,
				Outcome: harness.Outcome{
					Key:      rec.JobKey,
					Workload: j.Opt.WorkloadName(),
					Mode:     j.Opt.Config.Security.Mode.String(),
					Digest:   rec.Digest,
					Cached:   rec.Cached,
					Result:   res,
				},
			})
			replayedKeys[rec.JobKey] = true
			sw.stats.Recovered++
			if rec.Cached {
				sw.stats.Cached++
			} else {
				sw.stats.Executed++
			}
		}

		if ws.EndState != "" {
			sw.state, sw.errMsg = sweepState(ws.EndState), ws.EndError
			s.mu.Lock()
			s.sweeps[id] = sw
			s.sweepsTotal++
			s.mu.Unlock()
			continue
		}

		remaining := make([]harness.Job, 0, len(jobs)-len(replayedKeys))
		for _, j := range jobs {
			if !replayedKeys[j.Key] {
				remaining = append(remaining, j)
			}
		}
		s.mu.Lock()
		s.sweeps[id] = sw
		s.sweepsTotal++
		s.sweepsRecovered++
		s.running.Add(1)
		s.mu.Unlock()
		resumed++
		s.log.Info("sweep recovered", "sweep", id, "key", ws.Key,
			"replayed", len(replayedKeys), "remaining", len(remaining))
		go func(sw *sweep, remaining []harness.Job) {
			defer s.running.Done()
			s.runSweep(sw, remaining)
		}(sw, remaining)
	}
	return resumed, nil
}

// Drain blocks until every submitted sweep has finished executing. Call
// it after cancelling BaseContext (which stops new simulations) and
// before closing the store, so results of in-flight simulations reach
// the store instead of dying with the process.
func (s *Server) Drain() { s.running.Wait() }

// resumableFailure reports whether a sweep failure must keep the WAL
// entry open: shutdown and leadership loss are process-lifecycle events,
// not verdicts on the sweep, and the next boot (or the new leader)
// resumes the sweep where it stopped.
func resumableFailure(err error) bool {
	return errors.Is(err, ErrShuttingDown) || errors.Is(err, ErrNotLeader)
}

// runSweep executes a sweep's jobs: store hits complete immediately, the
// rest go through the shared queue with one job per distinct digest.
func (s *Server) runSweep(sw *sweep, jobs []harness.Job) {
	// Group jobs by digest, preserving first-seen order.
	type group struct {
		opt  sim.Options
		jobs []harness.Job
	}
	groups := make(map[string]*group)
	var order []string
	for _, j := range jobs {
		d := j.Opt.Digest()
		g, ok := groups[d]
		if !ok {
			g = &group{opt: j.Opt}
			groups[d] = g
			order = append(order, d)
		}
		g.jobs = append(g.jobs, j)
	}

	// Store hits complete right now; every other digest is submitted to
	// the queue in one call, so it holds the sweep's jobs in grid order
	// and a drain's lease batch takes neighbours, which share warmups.
	var subs []Submission
	for _, d := range order {
		g := groups[d]
		if res, ok := s.store.Lookup(d); ok {
			s.completeGroup(sw, d, g.jobs, res, true, len(g.jobs))
			continue
		}
		subs = append(subs, Submission{Digest: d, Key: g.jobs[0].Key, Opt: g.opt})
	}
	queued, joinedAt := s.queue.Enqueue(sw.client, sw.priority, subs...)

	var wg sync.WaitGroup
	for i, sub := range subs {
		d, g, j, joined := sub.Digest, groups[sub.Digest], queued[i], joinedAt[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, how, err := j.outcome(joined)
			if err != nil {
				s.log.Error("job failed", "sweep", sw.id, "digest", d, "key", g.jobs[0].Key, "err", err)
				sw.mu.Lock()
				if sw.failErr == nil {
					sw.failErr = err
					sw.errMsg = fmt.Sprintf("%s: %v", g.jobs[0].Key, err)
				}
				sw.notifyLocked()
				sw.mu.Unlock()
				return
			}
			// The job's opener counts one execution (or a late store
			// hit); every extra job — in-batch duplicates and joined
			// jobs alike — is a dedup.
			cachedJobs := 0
			switch how {
			case viaRan:
				deduped := len(g.jobs) - 1
				s.addCounts(1, 0, int64(deduped))
				sw.mu.Lock()
				sw.stats.Executed++
				sw.stats.Deduped += deduped
				sw.mu.Unlock()
			case viaJoined:
				s.addCounts(0, 0, int64(len(g.jobs)))
				sw.mu.Lock()
				sw.stats.Deduped += len(g.jobs)
				sw.mu.Unlock()
			case viaStored:
				cachedJobs = len(g.jobs)
			}
			s.completeGroup(sw, d, g.jobs, res, how != viaRan, cachedJobs)
		}()
	}
	wg.Wait()

	sw.mu.Lock()
	if sw.failErr != nil {
		sw.state = stateFailed
	} else {
		sw.state = stateDone
	}
	state, stats, failErr, errMsg := sw.state, sw.stats, sw.failErr, sw.errMsg
	sw.notifyLocked()
	sw.mu.Unlock()
	// A terminal WAL record seals the sweep — except for failures that
	// mean "this process stopped", which the next boot resumes.
	if s.wal != nil && !resumableFailure(failErr) {
		if err := s.wal.Append(walRecord{Type: walEndRec, Sweep: sw.id, State: string(state), Error: errMsg}); err != nil {
			s.log.Error("WAL end record failed", "sweep", sw.id, "err", err)
		}
	}
	s.log.Info("sweep finished", "sweep", sw.id, "state", string(state),
		"executed", stats.Executed, "cached", stats.Cached, "deduped", stats.Deduped,
		"recovered", stats.Recovered,
		"elapsed", time.Since(sw.started).Round(time.Millisecond))
}

// completeGroup appends one outcome per job of a finished digest,
// assigning each its stream sequence number and logging the completions
// to the WAL before publication — so any line a client has seen is
// backed by both a stored result and a WAL record.
// cachedJobs is the store-hit accounting (executed/joined digests were
// already folded into the stats by the caller and pass 0).
func (s *Server) completeGroup(sw *sweep, digest string, jobs []harness.Job, res sim.Result, cached bool, cachedJobs int) {
	if cachedJobs > 0 {
		s.addCounts(0, int64(cachedJobs), 0)
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.stats.Cached += cachedJobs
	for _, j := range jobs {
		seq := sw.nextSeq
		sw.nextSeq++
		item := StreamItem{
			Seq: seq,
			Outcome: harness.Outcome{
				Key:      j.Key,
				Workload: j.Opt.WorkloadName(),
				Mode:     j.Opt.Config.Security.Mode.String(),
				Digest:   digest,
				Cached:   cached,
				Result:   res,
			},
		}
		if s.wal != nil {
			// Held under sw.mu so the sweep's done records land in the
			// file in seq order (replay sorts anyway; the order makes
			// the log greppable). The result itself is already in the
			// store — Queue.Complete records before publishing — so a crash
			// between store append and this line just re-completes the
			// job as a store hit on recovery.
			if err := s.wal.Append(walRecord{
				Type: walDoneRec, Sweep: sw.id, Seq: seq,
				JobKey: j.Key, Digest: digest, Cached: cached,
			}); err != nil {
				s.log.Error("WAL done record failed", "sweep", sw.id, "key", j.Key, "err", err)
			}
		}
		sw.results = append(sw.results, item)
	}
	sw.notifyLocked()
}

func (s *Server) addCounts(executed, cached, deduped int64) {
	s.mu.Lock()
	s.simsExecuted += executed
	s.jobsCached += cached
	s.jobsDeduped += deduped
	s.mu.Unlock()
}

// Handler returns the HTTP API:
//
//	PUT  /v1/sweeps/{key}          idempotent keyed submit, 202 (200 if attached) + SubmitResponse
//	GET  /v1/sweeps/{id}           SweepStatus
//	GET  /v1/sweeps/{id}/results   NDJSON stream; ?after=<seq> resumes from a cursor
//	GET  /v1/results/{digest}      one stored result
//	POST /v1/jobs/lease            worker: lease queued jobs (long-poll)
//	POST /v1/jobs/{digest}/result  worker: upload a result or error (ack)
//	POST /v1/jobs/{digest}/release worker: return an unrun lease
//	POST /v1/workers/heartbeat     worker: extend held leases
//	GET  /healthz                  JSON readiness (store writability, queue depth)
//	GET  /metrics                  Prometheus text exposition
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/sweeps/{key}", s.handleSubmitKeyed)
	// Submissions name their key; a keyless POST to the collection gets
	// 405 and a pointer to the keyed route rather than a bare 404.
	mux.HandleFunc("/v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", "") // the collection itself accepts no method
		httpError(w, http.StatusMethodNotAllowed, "submit sweeps with PUT /v1/sweeps/{key}")
	})
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/results", s.handleResults)
	mux.HandleFunc("GET /v1/results/{digest}", s.handleResult)
	mux.HandleFunc("POST /v1/jobs/lease", s.handleLease)
	mux.HandleFunc("POST /v1/jobs/{digest}/result", s.handleJobResult)
	mux.HandleFunc("POST /v1/jobs/{digest}/release", s.handleJobRelease)
	mux.HandleFunc("POST /v1/workers/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// validWorkerID rejects empty ids and the reserved "!" prefix ("!local"
// marks in-process leases, which never expire and survive Shutdown — a
// remote worker must not be able to claim, complete, or wedge those).
func validWorkerID(w http.ResponseWriter, id string) bool {
	if id == "" {
		httpError(w, http.StatusBadRequest, "request needs a worker_id")
		return false
	}
	if strings.HasPrefix(id, "!") {
		httpError(w, http.StatusBadRequest, "worker_id %q: ids starting with %q are reserved", id, "!")
		return false
	}
	return true
}

// handleLease leases queued jobs to a worker. An empty job list is a
// normal response (the long-poll elapsed idle; lease again); 503 means
// the server is shutting down and the worker should back off.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid lease request: %v", err)
		return
	}
	if !validWorkerID(w, req.WorkerID) {
		return
	}
	ttl := clampTTL(time.Duration(req.TTLMS) * time.Millisecond)
	wait := min(max(time.Duration(req.WaitMS)*time.Millisecond, 0), maxLeaseWait)
	// The long-poll also ends when the worker goes away, so a departed
	// worker never captures the next job to arrive.
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	jobs, err := s.queue.Lease(ctx, req.WorkerID, req.MaxJobs, ttl)
	if err != nil {
		httpTypedError(w, http.StatusServiceUnavailable, err)
		return
	}
	resp := LeaseResponse{TTLMS: ttl.Milliseconds(), Jobs: make([]WireJob, 0, len(jobs))}
	for _, j := range jobs {
		resp.Jobs = append(resp.Jobs, WireJob{Digest: j.Digest, Key: j.Key, Options: j.Opt})
	}
	writeJSON(w, resp)
}

// handleJobResult applies a worker's ack: a result or an error for one
// leased digest. Always 200 with an AckResponse — accepted=false marks an
// idempotent no-op (double ack, or a straggler whose lease was reclaimed
// and whose job someone else finished), which the worker treats as
// success.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	var up ResultUpload
	if err := json.NewDecoder(r.Body).Decode(&up); err != nil {
		httpError(w, http.StatusBadRequest, "invalid result upload: %v", err)
		return
	}
	if !validWorkerID(w, up.WorkerID) {
		return
	}
	digest := r.PathValue("digest")
	var (
		res sim.Result
		err error
	)
	switch {
	case up.Error != "":
		err = fmt.Errorf("service: worker %s: %s", up.WorkerID, up.Error)
	case up.Result != nil:
		res = *up.Result
	default:
		httpError(w, http.StatusBadRequest, "result upload carries neither result nor error")
		return
	}
	accepted := s.queue.Complete(digest, up.WorkerID, res, err)
	if accepted && err == nil && up.DurationMS > 0 {
		// A straggler's duration is as stale as its result: fold in only
		// accepted uploads so the histogram counts each job at most once.
		s.metrics.observeSimWall(time.Duration(up.DurationMS) * time.Millisecond)
	}
	s.log.Debug("remote result", "digest", digest, "worker", up.WorkerID,
		"accepted", accepted, "failed", up.Error != "")
	writeJSON(w, AckResponse{Accepted: accepted})
}

// handleJobRelease returns an unrun lease to the queue front.
func (s *Server) handleJobRelease(w http.ResponseWriter, r *http.Request) {
	var req ReleaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid release request: %v", err)
		return
	}
	if !validWorkerID(w, req.WorkerID) {
		return
	}
	writeJSON(w, AckResponse{Accepted: s.queue.Release(r.PathValue("digest"), req.WorkerID)})
}

// handleHeartbeat extends a worker's leases; the response tells the
// worker how many it still holds (fewer than asked means some were
// reclaimed — their uploads will be ignored).
func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid heartbeat: %v", err)
		return
	}
	if !validWorkerID(w, req.WorkerID) {
		return
	}
	writeJSON(w, HeartbeatResponse{Held: s.queue.Heartbeat(req.WorkerID, req.Digests)})
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(apiError{Error: fmt.Sprintf(format, args...)})
}

// httpTypedError answers with the error's wire code (and leader hint, if
// any), so the Client can rebuild the matching sentinel.
func httpTypedError(w http.ResponseWriter, status int, err error) {
	body := apiError{Error: err.Error(), Code: errorCode(err)}
	var nle *NotLeaderError
	if errors.As(err, &nle) {
		body.Leader = nle.Leader
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// decodeSpec decodes a sweep spec body. Typed errors (a fidelity block
// this build cannot honor, surfaced by FidelitySpec.UnmarshalJSON through
// the decoder) pass through so httpTypedError can attach their wire code;
// everything else gets the generic invalid-spec wrapper.
func decodeSpec(r *http.Request) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		if errors.Is(err, ErrUnsupportedFidelity) {
			return Spec{}, err
		}
		return Spec{}, fmt.Errorf("invalid sweep spec: %v", err)
	}
	return spec, nil
}

// submitStatus maps a submission error to its HTTP status.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrQuotaExceeded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown), errors.Is(err, ErrNotLeader):
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

func (s *Server) handleSubmitKeyed(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(r)
	if err != nil {
		httpTypedError(w, http.StatusBadRequest, err)
		return
	}
	sw, attached, err := s.SubmitKeyed(r.PathValue("key"), spec)
	if err != nil {
		httpTypedError(w, submitStatus(err), err)
		return
	}
	status := http.StatusAccepted
	if attached {
		status = http.StatusOK
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(SubmitResponse{
		ID:         sw.id,
		Key:        sw.key,
		Total:      sw.total,
		Attached:   attached,
		StatusURL:  "/v1/sweeps/" + sw.id,
		ResultsURL: "/v1/sweeps/" + sw.id + "/results",
	})
}

func (s *Server) lookupSweep(id string) (*sweep, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	return sw, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.lookupSweep(r.PathValue("id"))
	if !ok {
		httpTypedError(w, http.StatusNotFound, fmt.Errorf("%w: %q", ErrUnknownSweep, r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(sw.status())
}

// handleResults streams the sweep's outcomes as NDJSON in completion
// order, flushing per line batch, until the sweep is finished (or the
// client goes away). ?after=<seq> skips lines the client already
// consumed — the resume cursor. A finished, drained stream ends with an
// end sentinel line carrying the terminal state and final stats, so a
// client can distinguish "stream complete" from "connection lost".
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.lookupSweep(r.PathValue("id"))
	if !ok {
		httpTypedError(w, http.StatusNotFound, fmt.Errorf("%w: %q", ErrUnknownSweep, r.PathValue("id")))
		return
	}
	after := 0
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "invalid cursor %q", v)
			return
		}
		after = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// Results append in strictly increasing seq order, so the cursor is
	// a binary search and "next" stays a plain index from there on.
	sw.mu.Lock()
	next := sort.Search(len(sw.results), func(i int) bool { return sw.results[i].Seq > after })
	sw.mu.Unlock()

	for {
		sw.mu.Lock()
		batch := sw.results[next:]
		state := sw.state
		errMsg := sw.errMsg
		stats := sw.stats
		lastSeq := sw.nextSeq - 1
		changed := sw.changed
		sw.mu.Unlock()

		for _, item := range batch {
			if err := enc.Encode(item); err != nil {
				return // client gone
			}
		}
		next += len(batch)
		if flusher != nil && len(batch) > 0 {
			flusher.Flush()
		}
		if state != stateRunning {
			sw.mu.Lock()
			drained := next == len(sw.results)
			resumable := sw.state == stateFailed && resumableFailure(sw.failErr)
			sw.mu.Unlock()
			if drained {
				if resumable {
					// Shutdown or leadership loss, not a verdict: close
					// without a sentinel so the client reads it as a lost
					// connection and resumes — against this server's next
					// boot, or through a follower proxying to the new
					// leader, either of which recovers the sweep from the
					// WAL and picks the stream up at the cursor.
					return
				}
				enc.Encode(streamEnd{Seq: lastSeq, End: true, State: string(state), Error: errMsg, Stats: stats})
				if flusher != nil {
					flusher.Flush()
				}
				return
			}
			continue
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	res, ok := s.store.Lookup(digest)
	if !ok {
		httpError(w, http.StatusNotFound, "no result for digest %q", digest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Digest string     `json:"digest"`
		Result sim.Result `json:"result"`
	}{digest, res})
}

// HealthStatus is the GET /healthz document: a readiness probe, not just
// liveness. Status is "ok" while the result store is writable; a store
// whose last append failed (disk full, directory gone) degrades the
// answer to 503 so load balancers stop routing sweeps at a server that
// would accept and then lose them. QueueDepth rides along as the cheapest
// load signal. Role distinguishes a leader from a proxying follower in
// a replica group.
type HealthStatus struct {
	Status     string `json:"status"` // ok | degraded
	Store      string `json:"store"`  // ok | the sticky write error
	QueueDepth int    `json:"queue_depth"`
	Role       string `json:"role,omitempty"` // leader | follower (replicas only)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeHealth(w, s.store, HealthStatus{QueueDepth: s.queue.stats().pending})
}

// writeHealth serves hs as the /healthz answer of either replica role,
// with Status and Store filled in from the store's write health.
func writeHealth(w http.ResponseWriter, store harness.Store, hs HealthStatus) {
	hs.Status, hs.Store = "ok", "ok"
	if h, ok := store.(interface{ Health() error }); ok {
		if err := h.Health(); err != nil {
			hs.Status, hs.Store = "degraded", err.Error()
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if hs.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(hs)
}

// handleMetrics serves valid Prometheus text exposition (version 0.0.4):
// scheduling counters (simulations run, jobs deduped, jobs served from
// cache), fleet state (attached workers, queue depth, leases handed out /
// reclaimed / completed remotely), durability state (WAL records, sweeps
// recovered, leader lease epoch), result-store size when the backend
// reports it, build identification, and the server's latency histograms.
// Single-sample families keep the bare `name value` line the smoke
// scripts grep for; HELP/TYPE headers and histogram families are what a
// real scraper consumes.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	qs := s.queue.stats()
	s.mu.Lock()
	sweepsTotal := s.sweepsTotal
	sweepsActive := s.countActiveLocked()
	sweepsRecovered := s.sweepsRecovered
	walReplayed := s.walReplayed
	quotaRejected := s.quotaRejected
	simsExecuted := s.simsExecuted
	jobsCached := s.jobsCached
	jobsDeduped := s.jobsDeduped
	s.mu.Unlock()
	walRecords, epoch := walReplayed, uint64(0)
	if s.wal != nil {
		walRecords += s.wal.Lines()
		epoch = s.wal.epoch
	}

	var e obs.Exposition
	buildInfo(&e)
	e.Counter("secddr_sims_executed_total", "Simulations actually run (local pool or remote workers).", simsExecuted)
	e.Counter("secddr_jobs_cached_total", "Jobs answered straight from the result store.", jobsCached)
	e.Counter("secddr_jobs_deduped_total", "Jobs that joined an in-flight or in-batch digest.", jobsDeduped)
	e.Counter("secddr_sweeps_total", "Sweeps ever submitted or recovered.", sweepsTotal)
	e.Counter("secddr_sweeps_recovered_total", "Unfinished sweeps resumed from the WAL at boot.", sweepsRecovered)
	e.Counter("secddr_wal_records_total", "Sweep WAL records: replayed at boot plus appended since.", walRecords)
	e.Counter("secddr_quota_rejections_total", "Submissions rejected by the per-client quota.", quotaRejected)
	leadership(&e, true, epoch)
	e.Gauge("secddr_sweeps_active", "Sweeps currently running.", float64(sweepsActive))
	e.Gauge("secddr_sims_running", "Points the local pool is executing right now (started, not just leased).", float64(qs.running))
	e.Gauge("secddr_digests_inflight", "Distinct digests with an open job.", float64(qs.open))
	e.Gauge("secddr_pool_capacity", "Size of the in-process execution pool (0 in fleet-only mode).", float64(s.localWorkers))
	e.Gauge("secddr_queue_depth", "Jobs queued and not yet leased.", float64(qs.pending))
	e.Gauge("secddr_jobs_leased", "Jobs currently leased to remote workers.", float64(qs.leased))
	e.Counter("secddr_jobs_requeued_total", "Leases reclaimed from silent workers.", qs.requeued)
	e.Counter("secddr_jobs_released_total", "Leases returned cooperatively by workers.", qs.released)
	e.Counter("secddr_jobs_leased_total", "Jobs ever handed to remote workers.", qs.leasedTotal)
	e.Counter("secddr_jobs_remote_done_total", "Jobs finished by a remote result upload.", qs.remoteDone)
	e.Gauge("secddr_fleet_workers", "Remote workers seen within the attach window.", float64(qs.workers))
	if st, ok := s.store.(*resultstore.Store); ok {
		stats := st.Stats()
		e.Gauge("secddr_store_entries", "Distinct results in the store index.", float64(stats.Entries))
		e.Gauge("secddr_store_segments", "Store segments on disk.", float64(stats.Segments))
		e.Gauge("secddr_store_disk_bytes", "Total store bytes on disk.", float64(stats.DiskBytes))
		e.Gauge("secddr_store_garbage_bytes", "Store bytes owed to duplicate records.", float64(stats.GarbageBytes))
	}
	queueWait, leaseDur, simWall, storeFlush := s.metrics.snapshot()
	e.Histogram("secddr_queue_wait_us", "Microseconds jobs spent pending before being leased.", &queueWait)
	e.Histogram("secddr_lease_duration_us", "Microseconds from lease to completion.", &leaseDur)
	e.Histogram("secddr_job_sim_wall_us", "Wall-clock microseconds per executed point, from its start to its result (local pool, plus worker-reported uploads).", &simWall)
	e.Histogram("secddr_store_flush_us", "Microseconds persisting one fresh result to the store.", &storeFlush)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	io.WriteString(w, e.String())
}

func (s *Server) countActiveLocked() int {
	n := 0
	for _, sw := range s.sweeps {
		if sw.status().State == string(stateRunning) {
			n++
		}
	}
	return n
}
