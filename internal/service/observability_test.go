package service

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"secddr/internal/obs"
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
	srv := NewServer(newMemStore(), ServerOptions{Workers: 2})
	srv.runSim = fakeSim
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
