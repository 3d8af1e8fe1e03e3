package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"secddr/internal/obs"
	"secddr/internal/sim"
)

// famValue extracts a family's single unlabelled sample, failing the test
// if the family or sample is missing.
func famValue(t *testing.T, fams map[string]*obs.MetricFamily, name string) float64 {
	t.Helper()
	f, ok := fams[name]
	if !ok {
		t.Fatalf("/metrics missing family %q", name)
	}
	v, ok := f.Value()
	if !ok {
		t.Fatalf("family %q has no bare sample", name)
	}
	return v
}

// histCount returns a histogram family's _count sample.
func histCount(t *testing.T, fams map[string]*obs.MetricFamily, name string) float64 {
	t.Helper()
	f, ok := fams[name]
	if !ok {
		t.Fatalf("/metrics missing histogram %q", name)
	}
	if f.Type != "histogram" {
		t.Fatalf("family %q has type %q, want histogram", name, f.Type)
	}
	for _, s := range f.Samples {
		if s.Name == name+"_count" {
			return s.Value
		}
	}
	t.Fatalf("histogram %q has no _count sample", name)
	return 0
}

// TestObservabilityEndpoints: /metrics must parse as valid Prometheus
// text exposition (the obs parser validates headers, sample syntax, and
// histogram bucket monotonicity), carry the build-info gauge, and agree
// with itself — each latency histogram counts exactly the events the
// scheduling counters report. /healthz must serve the JSON readiness
// document.
func TestObservabilityEndpoints(t *testing.T) {
	srv := NewServer(newMemStore(), ServerOptions{Workers: 2, runSim: fakeSim})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL}
	if _, _, err := cl.RunRemoteKeyed(context.Background(), defaultKey(t, tinySpec()), tinySpec(), nil); err != nil {
		t.Fatal(err)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("metrics = %v, %v", resp, err)
	}
	fams, err := obs.ParseExposition(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics is not valid exposition: %v", err)
	}

	if got := famValue(t, fams, "secddr_sims_executed_total"); got != 4 {
		t.Errorf("sims_executed_total = %g, want 4", got)
	}
	bi, ok := fams["secddr_build_info"]
	if !ok || len(bi.Samples) != 1 {
		t.Fatalf("build_info family = %+v", bi)
	}
	if l := bi.Samples[0].Labels; l["version"] == "" || l["revision"] == "" {
		t.Errorf("build_info labels = %v, want version and revision", l)
	}

	// Every executed job was leased exactly once (waited in the queue,
	// then held a lease until completion), ran one simulation on the local
	// pool, and flushed one fresh result; no requeue happened, so all four
	// histograms count the four executed digests.
	for _, h := range []string{
		"secddr_queue_wait_us", "secddr_lease_duration_us",
		"secddr_job_sim_wall_us", "secddr_store_flush_us",
	} {
		if got := histCount(t, fams, h); got != 4 {
			t.Errorf("%s_count = %g, want 4", h, got)
		}
	}

	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz = %v, %v", resp, err)
	}
	var hs HealthStatus
	if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
		t.Fatalf("healthz is not JSON: %v", err)
	}
	resp.Body.Close()
	if hs.Status != "ok" || hs.Store != "ok" || hs.QueueDepth != 0 {
		t.Errorf("healthz = %+v, want ok/ok/0", hs)
	}
}

// scrape fetches and parses /metrics.
func scrape(t *testing.T, url string) map[string]*obs.MetricFamily {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("metrics = %v, %v", resp, err)
	}
	defer resp.Body.Close()
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("/metrics is not valid exposition: %v", err)
	}
	return fams
}

// TestSimWallCountsExecutedPoints: secddr_job_sim_wall_us has one
// definition on both execution paths — the batch runner times each point
// from its start to its result — so with real (forking) simulations its
// count equals the executed points whether the local pool ran them or a
// fleet worker did and uploaded the duration.
func TestSimWallCountsExecutedPoints(t *testing.T) {
	for _, path := range []string{"local", "fleet"} {
		t.Run(path, func(t *testing.T) {
			workers := 2
			if path == "fleet" {
				workers = -1
			}
			srv := NewServer(newMemStore(), ServerOptions{Workers: workers})
			defer func() { srv.Shutdown(); srv.Drain() }()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			cl := &Client{BaseURL: ts.URL}
			ctx, cancel := context.WithCancel(context.Background())
			var wg sync.WaitGroup
			defer wg.Wait()
			defer cancel()
			if path == "fleet" {
				w := &Worker{Client: cl, ID: "w1", Workers: 2, PollWait: 50 * time.Millisecond}
				wg.Add(1)
				go func() { defer wg.Done(); w.Run(ctx) }()
			}
			if _, _, err := cl.RunRemoteKeyed(ctx, defaultKey(t, tinySpec()), tinySpec(), nil); err != nil {
				t.Fatal(err)
			}
			fams := scrape(t, ts.URL)
			executed := famValue(t, fams, "secddr_sims_executed_total")
			if executed != 4 {
				t.Fatalf("sims_executed_total = %g, want 4", executed)
			}
			if got := histCount(t, fams, "secddr_job_sim_wall_us"); got != executed {
				t.Errorf("secddr_job_sim_wall_us_count = %g, want %g (one per executed point)", got, executed)
			}
			if got := famValue(t, fams, "secddr_sims_running"); got != 0 {
				t.Errorf("sims_running = %g after the sweep, want 0", got)
			}
		})
	}
}

// TestSimsRunningCountsStartedPoints: the pool leases two jobs per slot
// but secddr_sims_running counts only the points it is executing.
func TestSimsRunningCountsStartedPoints(t *testing.T) {
	started := make(chan struct{}, 8)
	proceed := make(chan struct{})
	runSim := func(o sim.Options) (sim.Result, error) {
		started <- struct{}{}
		<-proceed
		return fakeSim(o)
	}
	srv := NewServer(newMemStore(), ServerOptions{Workers: 1, runSim: runSim})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	waitStart := func() {
		t.Helper()
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("the local pool never started a point")
		}
	}

	// Occupy the only slot, so the next sweep's four jobs are all
	// pending when the pool leases again.
	first, err := submitFresh(srv, Spec{Modes: []string{"unprotected"}, Workloads: []string{"pr"}, InstrPerCore: 5_000, WarmupInstr: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	waitStart()
	sw, err := submitFresh(srv, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for srv.queue.stats().pending != 4 {
		select {
		case <-deadline:
			t.Fatalf("queue = %+v, want the second sweep's 4 jobs pending", srv.queue.stats())
		case <-time.After(time.Millisecond):
		}
	}
	proceed <- struct{}{} // the first sweep's point finishes
	waitStart()           // the pool leased two of the four and started one

	fams := scrape(t, ts.URL)
	if got := famValue(t, fams, "secddr_sims_running"); got != 1 {
		t.Errorf("sims_running = %g with one point executing, want 1", got)
	}
	if got := famValue(t, fams, "secddr_queue_depth"); got != 2 {
		t.Errorf("queue_depth = %g, want 2 (the pool leased two jobs)", got)
	}
	close(proceed)
	waitState(t, first)
	waitState(t, sw)
	srv.Shutdown()
	srv.Drain()
}
