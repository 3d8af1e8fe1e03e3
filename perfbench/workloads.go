package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"secddr/internal/harness"
	"secddr/internal/resultstore"
	"secddr/internal/service"
)

// Every workload is a closed loop: one process sends one sweep at a time
// and waits for all of its results, with at most simWorkers simulations
// running at once.
const simWorkers = 2

const defaultSeed = 42

// Grid names (also the keys of reference.json).
const (
	gridFig6    = "fig6"
	gridSampled = "sampled-wide"
)

// fig6Workloads are the Fig. 6 profiles the exact grid runs: two
// bandwidth-bound streaming kernels, a pointer-chasing graph kernel, and a
// latency-bound SPEC profile.
var fig6Workloads = []string{"mcf", "lbm", "pr", "omnetpp"}

// path is the route a sweep takes from the caller to the simulator.
type path int

const (
	pathLocal path = iota // harness.RunContext in the benchmark process
	pathPool              // in-process server, its local pool executes
	pathFleet             // in-process fleet-only server plus one worker
)

// workload is one benchmark input: a grid and the path it is swept along.
type workload struct {
	name string
	grid string
	path path
}

var workloads = []workload{
	{"fig6-local", gridFig6, pathLocal},
	{"sampled-wide", gridSampled, pathLocal},
	{"pool-sweep", gridFig6, pathPool},
	{"fleet-sweep", gridFig6, pathFleet},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// gridSpec is the sweep request of a grid: the five Fig. 6 modes on the
// 4-core Table 1 platform at QuickScale. tiny shrinks it for self-tests.
func gridSpec(grid string, seed uint64, tiny bool) service.Spec {
	sp := service.Spec{Modes: []string{"fig6"}, Quick: true, Seed: &seed}
	switch grid {
	case gridFig6:
		sp.Workloads = fig6Workloads
	case gridSampled:
		sp.Workloads = []string{"all"}
		sp.Fidelity = &service.FidelitySpec{Modes: []string{"sampled"}}
	}
	if tiny {
		sp.InstrPerCore, sp.WarmupInstr = 20_000, 10_000
		sp.Workloads = sp.Workloads[:1]
		if grid == gridSampled {
			sp.Workloads = []string{"mcf", "perlbench"}
			sp.Fidelity.PeriodInstr = 5_000
		}
	}
	return sp
}

// gridJobs expands a spec the way the server does.
func gridJobs(sp service.Spec) ([]harness.Job, error) {
	g, err := sp.Grid()
	if err != nil {
		return nil, err
	}
	return g.Jobs(), nil
}

// env is one sweep's environment: a fresh result store and, for the
// service paths, a server (and worker) in front of it.
type env struct {
	jobs  []harness.Job
	spec  service.Spec
	dir   string
	store *resultstore.Store
	hs    harness.Store // store, or its timing wrapper in traced runs
	sc    spanCtx

	// Set-up component times.
	setup, open time.Duration

	// Service paths.
	baseURL   string
	client    *service.Client
	clientTr  *transport
	workerTr  *transport
	rep       *service.Replica
	httpSrv   *http.Server
	stopRep   context.CancelFunc
	repDone   chan struct{}
	srvDone   chan struct{}
	stopWork  context.CancelFunc
	workDone  chan struct{}
	firstSeen time.Duration // dispatch -> first streamed result
}

var envSeq atomic.Int64

// newEnvDir returns a fresh store directory under workdir.
func newEnvDir(workdir string) string {
	return filepath.Join(workdir, fmt.Sprintf("store-%d-%d", os.Getpid(), envSeq.Add(1)))
}

func (e *env) openStore() error {
	t := time.Now()
	st, err := resultstore.Open(e.dir, resultstore.Options{})
	if err != nil {
		return err
	}
	e.open = time.Since(t)
	e.store, e.hs = st, st
	if e.sc.rec != nil {
		ts := &timedStore{Store: st}
		ts.sc.set(e.sc)
		e.hs = ts
	}
	return nil
}

// setup builds the environment of one sweep of w and returns it with its
// set-up time: grid expansion, store open, and for the service paths the
// server, its listener, and the worker's attach.
func setup(w workload, o options, sc spanCtx) (*env, error) {
	start := time.Now()
	sp := gridSpec(w.grid, o.seed, o.tiny)
	jobs, err := gridJobs(sp)
	if err != nil {
		return nil, err
	}
	e := &env{jobs: jobs, spec: sp, dir: newEnvDir(o.workdir), sc: sc}
	if err := e.openStore(); err != nil {
		return nil, err
	}
	if w.path != pathLocal {
		if err := e.startServer(w.path); err != nil {
			e.close()
			return nil, err
		}
	}
	if w.path == pathFleet {
		if err := e.attachWorker(); err != nil {
			e.close()
			return nil, err
		}
	}
	e.setup = time.Since(start)
	return e, nil
}

// startServer wires the service as cmd/secddr-serve does: a standalone
// replica (leader of one, WAL in the store directory) behind an HTTP
// listener on a loopback port.
func (e *env) startServer(p path) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.baseURL = "http://" + ln.Addr().String()
	workers := simWorkers
	if p == pathFleet {
		workers = -1 // fleet-only: the server executes nothing itself
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.stopRep, e.repDone = cancel, make(chan struct{})
	e.rep = service.NewReplica(e.hs, e.dir, service.ReplicaOptions{
		AdvertiseURL: e.baseURL,
		Server:       service.ServerOptions{Workers: workers},
	})
	go func() {
		defer close(e.repDone)
		e.rep.Run(ctx)
	}()
	if err := waitFor(10*time.Second, func() bool { ok, _ := e.rep.Leading(); return ok }); err != nil {
		ln.Close()
		return fmt.Errorf("server did not become leader: %w", err)
	}
	e.httpSrv = &http.Server{Handler: e.rep.Handler()}
	e.srvDone = make(chan struct{})
	go func() {
		defer close(e.srvDone)
		e.httpSrv.Serve(ln)
	}()
	e.clientTr = newTransport(e.sc)
	e.client = &service.Client{BaseURL: e.baseURL, HTTPClient: &http.Client{Transport: e.clientTr}}
	return nil
}

// attachWorker starts one in-process fleet worker and returns once its
// first lease request is on the wire.
func (e *env) attachWorker() error {
	e.workerTr = newTransport(e.sc)
	w := &service.Worker{
		Client:   &service.Client{BaseURL: e.baseURL, HTTPClient: &http.Client{Transport: e.workerTr}},
		ID:       "perfbench-worker",
		Workers:  simWorkers,
		LeaseTTL: 30 * time.Second, // secddr-worker's default
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.stopWork, e.workDone = cancel, make(chan struct{})
	go func() {
		defer close(e.workDone)
		w.Run(ctx)
	}()
	select {
	case <-e.workerTr.leased:
		return nil
	case <-time.After(10 * time.Second):
		return errors.New("worker did not attach")
	}
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// dispatch runs the sweep to completion and returns its outcomes in job
// order.
func (e *env) dispatch() ([]harness.Outcome, error) {
	if e.client == nil {
		sp := e.sc.begin("harness.RunContext")
		if ts, ok := e.hs.(*timedStore); ok {
			ts.sc.set(e.sc.child(sp)) // the campaign's store calls are its children
			defer ts.sc.set(e.sc)
		}
		outs, _, err := harness.RunContext(context.Background(), harness.Campaign{
			Jobs: e.jobs, Workers: simWorkers, Store: e.hs,
		})
		sp.endCount(len(outs))
		return outs, err
	}
	return e.runRemote(e.sc.id)
}

// runRemote submits the grid under key and streams it back.
func (e *env) runRemote(key string) ([]harness.Outcome, error) {
	sp := e.sc.begin("service.RunRemoteKeyed")
	e.clientTr.sc.set(e.sc.child(sp)) // the client's requests are its children
	defer e.clientTr.sc.set(e.sc)
	start := time.Now()
	first := true
	outs, _, err := e.client.RunRemoteKeyed(context.Background(), key, e.spec, func(done, total int) {
		if first {
			e.firstSeen, first = time.Since(start), false
		}
	})
	sp.endCount(len(outs))
	return outs, err
}

// retarget sends the environment's later spans to sc.
func (e *env) retarget(sc spanCtx) {
	e.sc = sc
	if ts, ok := e.hs.(*timedStore); ok {
		ts.sc.set(sc)
	}
	for _, tr := range []*transport{e.clientTr, e.workerTr} {
		if tr != nil {
			tr.sc.set(sc)
		}
	}
}

// shutdown stops the worker, the server and the listener and closes the
// store, waiting for every goroutine it started; it may be called again.
func (e *env) shutdown() {
	if e.stopWork != nil {
		e.stopWork()
		<-e.workDone
		e.stopWork = nil
	}
	if e.stopRep != nil {
		e.stopRep()
		<-e.repDone
		e.stopRep = nil
	}
	if e.httpSrv != nil {
		e.httpSrv.Close()
		<-e.srvDone
		e.httpSrv = nil
	}
	for _, tr := range []*transport{e.clientTr, e.workerTr} {
		if tr != nil {
			tr.base.CloseIdleConnections()
		}
	}
	if e.store != nil {
		e.store.Close()
		e.store = nil
	}
}

// close shuts the environment down and removes its store directory.
func (e *env) close() {
	e.shutdown()
	os.RemoveAll(e.dir)
}
