package service

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"secddr/internal/harness"
	"secddr/internal/resultstore"
	"secddr/internal/sim"
)

// memStore is an in-memory harness.Store for tests that don't need disk.
type memStore struct {
	mu sync.Mutex
	m  map[string]sim.Result
}

func newMemStore() *memStore { return &memStore{m: make(map[string]sim.Result)} }

func (s *memStore) Lookup(d string) (sim.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.m[d]
	return res, ok
}

func (s *memStore) Record(d string, res sim.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[d] = res
	return nil
}

// fakeSim is an instant stand-in for sim.Run.
func fakeSim(o sim.Options) (sim.Result, error) {
	return sim.Result{
		Workload: o.WorkloadName(),
		Mode:     o.Config.Security.Mode,
		IPC:      1.0,
	}, nil
}

// testKeys numbers the keys submitFresh hands out.
var testKeys atomic.Int64

// submitFresh registers spec under a key no other submission uses, so
// every call starts a new sweep.
func submitFresh(srv *Server, spec Spec) (*sweep, error) {
	sw, _, err := srv.SubmitKeyed(fmt.Sprintf("test-%d", testKeys.Add(1)), spec)
	return sw, err
}

// tinySpec is a 2x2 grid cheap enough for stubbed servers.
func tinySpec() Spec {
	return Spec{
		Modes:        []string{"unprotected", "secddr+ctr"},
		Workloads:    []string{"mcf", "lbm"},
		InstrPerCore: 5_000,
		WarmupInstr:  1_000,
	}
}

func TestSpecValidation(t *testing.T) {
	for name, sp := range map[string]Spec{
		"unknown mode":     {Modes: []string{"no-such-mode"}},
		"unknown workload": {Workloads: []string{"no-such-workload"}},
		"bad channels":     {Modes: []string{"unprotected"}, Channels: 3},
	} {
		if _, err := sp.Grid(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	grid, err := tinySpec().Grid()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(grid.Jobs()); n != 4 {
		t.Fatalf("tiny spec expands to %d jobs, want 4", n)
	}
	// Default spec: fig6 x all workloads at figure scale.
	dflt, err := Spec{}.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if len(dflt.Configs) != 5 || len(dflt.Workloads) == 0 || dflt.Seed != 42 {
		t.Fatalf("default spec = %d configs, %d workloads, seed %d",
			len(dflt.Configs), len(dflt.Workloads), dflt.Seed)
	}
	// An explicit seed of 0 is preserved, not remapped to the default.
	zero := uint64(0)
	g0, err := Spec{Seed: &zero}.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if g0.Seed != 0 {
		t.Fatalf("explicit seed 0 became %d", g0.Seed)
	}
}

// TestDrainWaitsForSweeps: results of simulations in flight at shutdown
// must reach the store before Drain returns (secddr-serve closes the
// store right after).
func TestDrainWaitsForSweeps(t *testing.T) {
	store := newMemStore()
	srv := NewServer(store, ServerOptions{Workers: 4})
	slow := make(chan struct{})
	srv.runSim = func(o sim.Options) (sim.Result, error) {
		<-slow
		return fakeSim(o)
	}
	if _, err := submitFresh(srv, tinySpec()); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(slow)
	}()
	srv.Drain()
	store.mu.Lock()
	n := len(store.m)
	store.mu.Unlock()
	if n != 4 {
		t.Fatalf("store holds %d results after Drain, want 4", n)
	}
}

// TestRemoteSweepEndToEnd drives the whole loop over real HTTP with real
// simulations: submit, stream, and a second submission served entirely
// from the store.
func TestRemoteSweepEndToEnd(t *testing.T) {
	store, err := resultstore.Open(filepath.Join(t.TempDir(), "store"), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := NewServer(store, ServerOptions{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	outs, stats, err := cl.RunRemote(ctx, tinySpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 4 || stats.Executed != 4 || stats.Cached != 0 {
		t.Fatalf("first run: %d outcomes, stats %+v", len(outs), stats)
	}
	// Outcomes come back in local job order, like a local run.
	grid, _ := tinySpec().Grid()
	for i, j := range grid.Jobs() {
		if outs[i].Key != j.Key {
			t.Fatalf("outcome[%d] = %q, want %q", i, outs[i].Key, j.Key)
		}
	}

	// Identical re-submission under the same (default) key attaches to
	// the finished sweep instead of starting a duplicate.
	key, err := tinySpec().DefaultKey()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cl.SubmitKeyed(ctx, key, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Attached {
		t.Fatalf("re-submission of the same (key, spec) did not attach: %+v", sub)
	}

	// The same grid under a different key is a distinct sweep — served
	// entirely from the store, zero simulations.
	outs2, stats2, err := cl.RunRemoteKeyed(ctx, "rerun", tinySpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Executed != 0 || stats2.Cached != 4 {
		t.Fatalf("re-run stats = %+v, want 0 executed / 4 cached", stats2)
	}
	for i := range outs {
		if !outs2[i].Cached {
			t.Errorf("outcome %q not served from store", outs2[i].Key)
		}
		if outs[i].Result.IPC != outs2[i].Result.IPC {
			t.Errorf("outcome %q differs between live and cached run", outs[i].Key)
		}
	}

	// Single-result endpoint serves a recorded digest.
	var res sim.Result
	if r, ok := store.Lookup(outs[0].Digest); !ok {
		t.Fatalf("digest %s not in store", outs[0].Digest)
	} else {
		res = r
	}
	if res.Workload != outs[0].Workload {
		t.Errorf("stored result workload = %q, want %q", res.Workload, outs[0].Workload)
	}
}

// TestSingleflightAcrossSweeps: two concurrent sweeps whose grids overlap
// must simulate each shared digest exactly once — the in-flight dedup the
// subsystem is named for.
func TestSingleflightAcrossSweeps(t *testing.T) {
	srv := NewServer(newMemStore(), ServerOptions{Workers: 8})
	block := make(chan struct{})
	var mu sync.Mutex
	counts := make(map[string]int)
	srv.runSim = func(o sim.Options) (sim.Result, error) {
		mu.Lock()
		counts[o.Digest()]++
		mu.Unlock()
		<-block
		return fakeSim(o)
	}

	shared := Spec{Modes: []string{"unprotected"}, Workloads: []string{"mcf", "lbm"}, Quick: true}
	overlap := Spec{Modes: []string{"unprotected"}, Workloads: []string{"mcf", "pr"}, Quick: true}
	swA, err := submitFresh(srv, shared)
	if err != nil {
		t.Fatal(err)
	}
	swB, err := submitFresh(srv, overlap)
	if err != nil {
		t.Fatal(err)
	}

	// Three distinct digests (mcf shared) -> three flights, then release.
	deadline := time.After(5 * time.Second)
	for {
		srv.mu.Lock()
		n := len(srv.inflight)
		srv.mu.Unlock()
		if n == 3 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("flights = %d, want 3", n)
		case <-time.After(time.Millisecond):
		}
	}
	close(block)

	for _, sw := range []*sweep{swA, swB} {
		for sw.status().State == string(stateRunning) {
			select {
			case <-deadline:
				t.Fatalf("sweep %s never finished", sw.id)
			case <-time.After(time.Millisecond):
			}
		}
		if st := sw.status(); st.State != string(stateDone) || st.Done != 2 {
			t.Fatalf("sweep %s status = %+v", sw.id, st)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(counts) != 3 {
		t.Fatalf("simulated %d distinct digests, want 3", len(counts))
	}
	for d, n := range counts {
		if n != 1 {
			t.Errorf("digest %s simulated %d times, want 1", d, n)
		}
	}
	srv.mu.Lock()
	deduped := srv.jobsDeduped
	srv.mu.Unlock()
	if deduped < 1 {
		t.Errorf("jobsDeduped = %d, want >= 1 (the joined shared digest)", deduped)
	}
}

// TestHTTPSurface covers the small endpoints: health, metrics, 404s, and
// spec rejection.
func TestHTTPSurface(t *testing.T) {
	srv := NewServer(newMemStore(), ServerOptions{Workers: 1})
	srv.runSim = fakeSim
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	if _, _, err := cl.RunRemote(ctx, Spec{Modes: []string{"bogus"}}, nil); err == nil ||
		!strings.Contains(err.Error(), "unknown mode") {
		t.Errorf("bad spec error = %v", err)
	}
	if _, err := cl.Status(ctx, "sweep-999999"); !errors.Is(err, ErrUnknownSweep) {
		t.Errorf("missing sweep error = %v, want ErrUnknownSweep", err)
	}

	if _, _, err := cl.RunRemote(ctx, tinySpec(), nil); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz = %v, %v", resp, err)
	}
	resp.Body.Close()

	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("metrics = %v, %v", resp, err)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	resp.Body.Close()
	body := string(buf[:n])
	for _, want := range []string{
		"secddr_sims_executed_total 4",
		"secddr_sweeps_total 1", // the rejected spec never registered
		"secddr_jobs_cached_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/results/not-a-digest")
	if err != nil || resp.StatusCode != 404 {
		t.Fatalf("missing digest = %v, %v", resp, err)
	}
	resp.Body.Close()
}

// TestStreamWhileRunning: a streamer connected before completion receives
// outcomes incrementally, not only at the end.
func TestStreamWhileRunning(t *testing.T) {
	srv := NewServer(newMemStore(), ServerOptions{Workers: 1})
	release := make(chan struct{})
	first := true
	var gate sync.Mutex
	srv.runSim = func(o sim.Options) (sim.Result, error) {
		gate.Lock()
		wasFirst := first
		first = false
		gate.Unlock()
		if !wasFirst {
			<-release // hold every simulation after the first
		}
		return fakeSim(o)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	sub, err := cl.Submit(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan harness.Outcome, 8)
	go cl.StreamResults(ctx, sub.ID, func(item StreamItem) error {
		if !item.End {
			got <- item.Outcome
		}
		return nil
	})
	select {
	case <-got: // first outcome arrives while three sims are still held
	case <-time.After(5 * time.Second):
		t.Fatal("no outcome streamed while sweep still running")
	}
	close(release)
	for i := 0; i < 3; i++ {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatal("stream never delivered remaining outcomes")
		}
	}
}
