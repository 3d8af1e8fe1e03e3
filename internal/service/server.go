package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"runtime"
	"slices"
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
	metrics      *serverMetrics     // every counter and histogram /metrics serves, shared with queue
	log          *slog.Logger       // structured progress; a discard logger when unset
	wal          *WAL               // nil: ephemeral sweeps
	maxPerClient int

	mu      sync.Mutex
	sweeps  map[string]*sweep
	running sync.WaitGroup // one per background runSweep
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
	l.s.queue.Complete(digest, localWorkerID, res, err, wall)
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
	return s.admit(id, key, spec, nil)
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
	s.metrics.add(&s.metrics.walReplayed, int64(nrec))

	// Deterministic recovery order (the replay map is keyed by sweep id).
	resumed := 0
	for _, id := range slices.Sorted(maps.Keys(replayed)) {
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
		if _, _, err := s.admit(id, ws.Key, spec, ws); err != nil {
			s.log.Warn("WAL spec no longer expands; skipping", "sweep", id, "err", err)
			continue
		}
		if ws.EndState == "" {
			resumed++
		}
	}
	return resumed, nil
}

// admit is the one way a sweep enters the server: it expands spec,
// registers the sweep under id, and starts the jobs it still has to run.
// prior is the sweep's replayed WAL state, nil for a fresh submission:
// its completions are re-published under their original seqs, and its
// end state, if any, registers the sweep read-only. A fresh submission
// of an id already registered attaches to it (attached=true); otherwise
// it must fit the client's quota and is logged to the WAL before it
// runs.
func (s *Server) admit(id, key string, spec Spec, prior *walSweep) (*sweep, bool, error) {
	grid, err := spec.Grid()
	if err != nil {
		return nil, false, err
	}
	jobs := grid.Jobs()
	if len(jobs) == 0 {
		return nil, false, fmt.Errorf("service: sweep expands to zero jobs")
	}
	sw := newSweep(id, key, spec.Client, spec.Priority, len(jobs))
	if prior != nil {
		jobs = s.replay(sw, jobs, prior)
	}
	terminal := sw.state != stateRunning

	s.mu.Lock()
	if old, ok := s.sweeps[id]; ok {
		s.mu.Unlock()
		s.log.Info("sweep re-submitted, attaching", "sweep", id, "key", key)
		return old, true, nil
	}
	if prior == nil {
		if err := s.checkQuotaLocked(spec.Client, len(jobs)); err != nil {
			s.mu.Unlock()
			return nil, false, err
		}
	}
	s.sweeps[id] = sw
	s.metrics.add(&s.metrics.sweepsTotal, 1)
	if !terminal {
		if prior != nil {
			s.metrics.add(&s.metrics.sweepsRecovered, 1)
		}
		s.running.Add(1)
	}
	s.mu.Unlock()
	if terminal {
		return sw, false, nil
	}

	if prior == nil && s.wal != nil {
		raw, err := json.Marshal(spec)
		if err == nil {
			err = s.wal.Append(walRecord{Type: walSweepRec, Sweep: id, Key: key, Spec: raw})
		}
		if err != nil {
			// Durability degrades, the live sweep still runs.
			s.log.Error("WAL sweep record failed", "sweep", id, "err", err)
		}
	}
	s.log.Info("sweep admitted", "sweep", id, "key", key, "client", spec.Client,
		"priority", spec.Priority, "jobs", sw.total, "replayed", len(sw.results), "remaining", len(jobs))
	go func() {
		defer s.running.Done()
		s.runSweep(sw, jobs)
	}()
	return sw, false, nil
}

// checkQuotaLocked fails with ErrQuotaExceeded when adding jobs to
// client's outstanding (not yet completed) jobs would exceed the quota.
func (s *Server) checkQuotaLocked(client string, jobs int) error {
	if s.maxPerClient <= 0 {
		return nil
	}
	outstanding := 0
	for _, other := range s.sweeps { //lint:detrange-ok summation under a lock is order-insensitive
		if other.client != client {
			continue
		}
		other.mu.Lock()
		if other.state == stateRunning {
			outstanding += other.total - len(other.results)
		}
		other.mu.Unlock()
	}
	if outstanding+jobs > s.maxPerClient {
		s.metrics.add(&s.metrics.quotaRejected, 1)
		return fmt.Errorf("%w: client %q has %d jobs outstanding, sweep adds %d, quota is %d",
			ErrQuotaExceeded, client, outstanding, jobs, s.maxPerClient)
	}
	return nil
}

// replay re-publishes prior's recorded completions into sw under their
// original seqs, applies prior's end state, and returns the jobs still to
// run. A completion the store cannot back is dropped, and its job runs
// again under a fresh seq.
func (s *Server) replay(sw *sweep, jobs []harness.Job, prior *walSweep) []harness.Job {
	sw.nextSeq = prior.maxSeq() + 1 // never reuse a seq a client may have consumed
	open := make(map[string]harness.Job, len(jobs))
	for _, j := range jobs {
		open[j.Key] = j
	}
	for _, seq := range slices.Sorted(maps.Keys(prior.Done)) {
		rec := prior.Done[seq]
		j, ok := open[rec.JobKey]
		if !ok {
			continue
		}
		res, ok := s.store.Lookup(rec.Digest)
		if !ok {
			// The WAL promised a completion the store cannot back (its
			// segment lost the record's tail): drop the claim.
			s.log.Warn("WAL completion without stored result; job re-runs",
				"sweep", sw.id, "key", rec.JobKey, "digest", rec.Digest)
			continue
		}
		delete(open, rec.JobKey)
		sw.results = append(sw.results, StreamItem{Seq: rec.Seq, Outcome: j.Outcome(rec.Digest, rec.Cached, res)})
		sw.stats.Recovered++
		if rec.Cached {
			sw.stats.Cached++
		} else {
			sw.stats.Executed++
		}
	}
	if prior.EndState != "" {
		sw.state, sw.errMsg = sweepState(prior.EndState), prior.EndError
	}
	return slices.DeleteFunc(jobs, func(j harness.Job) bool {
		_, ok := open[j.Key]
		return !ok
	})
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

// runSweep executes a sweep's jobs, each completing on its own: store
// hits complete immediately, and the rest go through the shared queue,
// which joins a digest another sweep already has open.
func (s *Server) runSweep(sw *sweep, jobs []harness.Job) {
	// Every job the store cannot answer is submitted to the queue in one
	// call, so it holds the sweep's jobs in grid order and a drain's lease
	// batch takes neighbours, which share warmups.
	var subs []Submission
	for _, j := range jobs {
		d := j.Opt.Digest()
		if res, ok := s.store.Lookup(d); ok {
			s.complete(sw, j, d, res, viaStored)
			continue
		}
		subs = append(subs, Submission{Digest: d, Key: j.Key, Opt: j.Opt})
	}
	queued, joinedAt := s.queue.Enqueue(sw.client, sw.priority, subs...)

	var wg sync.WaitGroup
	for i, sub := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, how, err := queued[i].outcome(joinedAt[i])
			if err != nil {
				s.log.Error("job failed", "sweep", sw.id, "digest", sub.Digest, "key", sub.Key, "err", err)
				sw.mu.Lock()
				if sw.failErr == nil {
					sw.failErr = err
					sw.errMsg = fmt.Sprintf("%s: %v", sub.Key, err)
				}
				sw.notifyLocked()
				sw.mu.Unlock()
				return
			}
			s.complete(sw, harness.Job{Key: sub.Key, Opt: sub.Opt}, sub.Digest, res, how)
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

// complete publishes one job's outcome, counted by how its result came:
// simulated for it (viaRan), joined from a job another sweep opened
// (viaJoined), or found in the store (viaStored). It assigns the job's
// stream seq and logs the completion to the WAL before publication, so
// any line a client has seen is backed by both a stored result and a
// WAL record.
func (s *Server) complete(sw *sweep, j harness.Job, digest string, res sim.Result, how string) {
	counter, stat := &s.metrics.jobsCached, &sw.stats.Cached
	switch how {
	case viaRan:
		counter, stat = &s.metrics.simsExecuted, &sw.stats.Executed
	case viaJoined:
		counter, stat = &s.metrics.jobsDeduped, &sw.stats.Deduped
	}
	s.metrics.add(counter, 1)
	sw.mu.Lock()
	defer sw.mu.Unlock()
	*stat++
	seq := sw.nextSeq
	sw.nextSeq++
	if s.wal != nil {
		// Held under sw.mu so the sweep's done records land in the file
		// in seq order (replay sorts anyway; the order makes the log
		// greppable). The result itself is already in the store —
		// Queue.Complete records before publishing — so a crash between
		// store append and this line just re-completes the job as a store
		// hit on recovery.
		if err := s.wal.Append(walRecord{
			Type: walDoneRec, Sweep: sw.id, Seq: seq,
			JobKey: j.Key, Digest: digest, Cached: how != viaRan,
		}); err != nil {
			s.log.Error("WAL done record failed", "sweep", sw.id, "key", j.Key, "err", err)
		}
	}
	sw.results = append(sw.results, StreamItem{Seq: seq, Outcome: j.Outcome(digest, how != viaRan, res)})
	sw.notifyLocked()
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
	// A straggler's duration is as stale as its result: Complete observes
	// it only for an accepted upload, so each job counts at most once.
	accepted := s.queue.Complete(digest, up.WorkerID, res, err, time.Duration(up.DurationMS)*time.Millisecond)
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
func decodeSpec(body io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(body)
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
	spec, err := decodeSpec(r.Body)
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
	sweepsActive := s.countActiveLocked()
	s.mu.Unlock()
	m := s.metrics.snapshot()
	walRecords, epoch := m.walReplayed, uint64(0)
	if s.wal != nil {
		walRecords += s.wal.Lines()
		epoch = s.wal.epoch
	}

	var e obs.Exposition
	buildInfo(&e)
	e.Counter("secddr_sims_executed_total", "Simulations actually run (local pool or remote workers).", m.simsExecuted)
	e.Counter("secddr_jobs_cached_total", "Jobs answered straight from the result store.", m.jobsCached)
	e.Counter("secddr_jobs_deduped_total", "Jobs that joined an in-flight digest.", m.jobsDeduped)
	e.Counter("secddr_sweeps_total", "Sweeps ever submitted or recovered.", m.sweepsTotal)
	e.Counter("secddr_sweeps_recovered_total", "Unfinished sweeps resumed from the WAL at boot.", m.sweepsRecovered)
	e.Counter("secddr_wal_records_total", "Sweep WAL records: replayed at boot plus appended since.", walRecords)
	e.Counter("secddr_quota_rejections_total", "Submissions rejected by the per-client quota.", m.quotaRejected)
	leadership(&e, true, epoch)
	e.Gauge("secddr_sweeps_active", "Sweeps currently running.", float64(sweepsActive))
	e.Gauge("secddr_sims_running", "Points the local pool is executing right now (started, not just leased).", float64(qs.running))
	e.Gauge("secddr_digests_inflight", "Distinct digests with an open job.", float64(qs.open))
	e.Gauge("secddr_pool_capacity", "Size of the in-process execution pool (0 in fleet-only mode).", float64(s.localWorkers))
	e.Gauge("secddr_queue_depth", "Jobs queued and not yet leased.", float64(qs.pending))
	e.Gauge("secddr_jobs_leased", "Jobs currently leased to remote workers.", float64(qs.leased))
	e.Counter("secddr_jobs_requeued_total", "Leases reclaimed from silent workers.", m.requeued)
	e.Counter("secddr_jobs_released_total", "Leases returned cooperatively by workers.", m.released)
	e.Counter("secddr_jobs_leased_total", "Jobs ever handed to remote workers.", m.leasedTotal)
	e.Counter("secddr_jobs_remote_done_total", "Jobs finished by a remote result upload.", m.remoteDone)
	e.Gauge("secddr_fleet_workers", "Remote workers seen within the attach window.", float64(qs.workers))
	if st, ok := s.store.(*resultstore.Store); ok {
		stats := st.Stats()
		e.Gauge("secddr_store_entries", "Distinct results in the store index.", float64(stats.Entries))
		e.Gauge("secddr_store_segments", "Store segments on disk.", float64(stats.Segments))
		e.Gauge("secddr_store_disk_bytes", "Total store bytes on disk.", float64(stats.DiskBytes))
		e.Gauge("secddr_store_garbage_bytes", "Store bytes owed to duplicate records.", float64(stats.GarbageBytes))
	}
	e.Histogram("secddr_queue_wait_us", "Microseconds jobs spent pending before being leased.", &m.queueWait)
	e.Histogram("secddr_lease_duration_us", "Microseconds from lease to completion.", &m.leaseDur)
	e.Histogram("secddr_job_sim_wall_us", "Wall-clock microseconds per executed point, from its start to its result (local pool, plus worker-reported uploads).", &m.simWall)
	e.Histogram("secddr_store_flush_us", "Microseconds persisting one fresh result to the store.", &m.storeFlush)

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
