package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"testing"

	"secddr/internal/config"
	"secddr/internal/harness"
	"secddr/internal/sim"
)

// check reports the first declared metric that is missing, carries the
// wrong unit or is not finite, and any metric that is not declared.
func (r report) check(defs []metricDef) error {
	want := make(map[string]bool, len(defs))
	for _, d := range defs {
		want[d.name] = true
		m, ok := r[d.name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s not reported", d.name)
		case m.Unit != d.unit:
			return fmt.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is %v", d.name, m.Value)
		}
	}
	for name := range r {
		if !want[name] {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	return nil
}

// declared reads the metric declarations of ../BENCHMARK.json.
func declared(t *testing.T) (endToEnd, perLayer []metricDef) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, metricDef{m.Name, m.Unit})
	}
	return endToEnd, perLayer
}

// TestWorkloadsSmoke runs every workload at self-test scale, untraced and
// traced, and checks that each run verifies and emits exactly the metrics
// BENCHMARK.json declares, each with its declared unit.
func TestWorkloadsSmoke(t *testing.T) {
	e2e, layer := declared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{seed: defaultSeed, trace: traced, tiny: true, workdir: t.TempDir(), setupReps: 1}
			res, err := run(w, o, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := e2e
			if traced {
				defs = layer
			}
			if err := res.Metrics.check(defs); err != nil {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
			}
			if traced && res.Metrics["failed_frac"].Value != 0 {
				t.Errorf("%s: failed_frac %v", w.name, res.Metrics["failed_frac"].Value)
			}
		}
	}
}

// TestDeclarationsMatchCode keeps BENCHMARK.json and the program's metric
// tables in step.
func TestDeclarationsMatchCode(t *testing.T) {
	e2e, layer := declared(t)
	for _, c := range []struct {
		name       string
		json, code []metricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", layer, perLayer()}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", c.name, len(c.json), len(c.code))
		}
		r := report{}
		for _, d := range c.code {
			r.set(d.name, d.unit, 1)
		}
		if err := r.check(c.json); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestSeedChangesDigests: a non-default seed gives every point a
// different result but leaves the grid's points unchanged.
func TestSeedChangesDigests(t *testing.T) {
	digests := func(seed uint64) map[string]string {
		e, err := setup(workloads[0], options{seed: seed, tiny: true, workdir: t.TempDir()}, spanCtx{})
		if err != nil {
			t.Fatal(err)
		}
		defer e.close()
		outs, err := e.dispatch()
		if err != nil {
			t.Fatal(err)
		}
		failed, got, problems := newChecker(e.jobs, false, nil).check(outs)
		if failed != 0 {
			t.Fatalf("seed %d: %v", seed, problems)
		}
		return got
	}
	a, b := digests(defaultSeed), digests(7)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("point counts differ: %d vs %d", len(a), len(b))
	}
	for k, d := range a {
		other, ok := b[k]
		if !ok {
			t.Errorf("%s missing at seed 7", k)
		} else if d == other {
			t.Errorf("%s: same result digest at seeds %d and 7", k, defaultSeed)
		}
	}
}

// TestCheckerOneBadPoint: without a recorded reference, one implausible
// point in the first sweep fails that point only; the good points become
// the reference, and the bad point's first good result becomes its own.
func TestCheckerOneBadPoint(t *testing.T) {
	jobs := []harness.Job{{Key: "a/x"}, {Key: "b/x"}, {Key: "c/x"}}
	sweep := func(bad string, ipc float64) []harness.Outcome {
		var outs []harness.Outcome
		for _, j := range jobs {
			res := sim.Result{Mode: config.ModeSecDDRCTR, Instructions: 1000, IPC: ipc}
			if j.Key == bad {
				res.IPC = 0
			}
			outs = append(outs, harness.Outcome{Key: j.Key, Result: res})
		}
		return outs
	}
	c := newChecker(jobs, false, nil)
	if failed, _, problems := c.check(sweep("b/x", 1.5)); failed != 1 {
		t.Fatalf("first sweep: %d failed, want 1: %v", failed, problems)
	}
	if failed, _, problems := c.check(sweep("", 1.5)); failed != 0 {
		t.Fatalf("second sweep: %d failed, want 0: %v", failed, problems)
	}
	if failed, _, _ := c.check(sweep("", 2.5)); failed != len(jobs) {
		t.Fatalf("changed results: %d failed, want %d", failed, len(jobs))
	}
}

// TestReferenceCoversGrids: the recorded digests name exactly the points
// of each full-scale grid at the default seed.
func TestReferenceCoversGrids(t *testing.T) {
	for _, g := range []string{gridFig6, gridSampled} {
		ref, err := referenceFor(g, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := gridJobs(gridSpec(g, defaultSeed, false))
		if err != nil {
			t.Fatal(err)
		}
		if len(ref) != len(jobs) {
			t.Errorf("%s: %d reference digests for %d points", g, len(ref), len(jobs))
		}
		for _, j := range jobs {
			if ref[j.Key] == "" {
				t.Errorf("%s: no reference digest for %s", g, j.Key)
			}
		}
	}
}

func TestFoldTop(t *testing.T) {
	top := `Type: cpu
Showing nodes accounting for 1000ns, 100% of 1000ns total
      flat  flat%   sum%        cum   cum%
     600ns 60.00% 60.00%      600ns 60.00%  secddr/internal/dram.(*Channel).Tick
     200ns 20.00% 80.00%      200ns 20.00%  secddr/internal/memctrl.pick (inline)
     100ns 10.00% 90.00%      100ns 10.00%  encoding/json.(*decodeState).object
     100ns 10.00%   100%      100ns 10.00%  runtime.mallocgc
         0     0%   100%      900ns 90.00%  secddr/internal/sim.Run
`
	got, err := foldTop(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"dram": 0.6, "memctrl": 0.2, "wire": 0.1}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for l, v := range want {
		if math.Abs(got[l]-v) > 1e-12 {
			t.Errorf("%s: %v, want %v", l, got[l], v)
		}
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"secddr/internal/memctrl.(*Controller).Tick":       "secddr/internal/memctrl",
		"secddr/internal/harness.Campaign.runForked.func1": "secddr/internal/harness",
		"runtime.mallocgc":                                  "runtime",
		"net/http.(*conn).serve":                            "net/http",
		"encoding/json.(*decodeState).object":               "encoding/json",
		"sync/atomic.(*Pointer[go.shape.struct {}]).Load":   "sync/atomic",
		"secddr/internal/sim.run[go.shape.*uint8,a/b.c].f1": "secddr/internal/sim",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
