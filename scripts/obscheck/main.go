// Command obscheck validates the two observability surfaces CI cares
// about, using the module's own hand-rolled parsers (internal/obs) so no
// Prometheus or Perfetto library is needed:
//
//   - a live /metrics endpoint: the body must parse as Prometheus text
//     exposition 0.0.4 (every histogram's cumulative buckets are checked
//     by the parser), carry the secddr_build_info gauge with non-empty
//     version/revision labels, and — when job counts are given — agree
//     with the sweep that just ran (sims_executed_total plus the
//     queue-wait / lease-duration / store-flush histogram _counts all
//     equal the executed-job count).
//
//   - a -timeline trace file: valid Chrome trace-event JSON with monotone
//     timestamps, only i/X/C phases, counter samples carrying values, and
//     the run/dram/mem categories a simulation always emits.
//
// scripts/obs-smoke.sh drives both against a booted campaign service;
// run it by hand against any server:
//
//	go run ./scripts/obscheck -metrics http://127.0.0.1:8080/metrics -jobs 4 -sim-wall 4
//	go run ./scripts/obscheck -trace run-trace.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"

	"secddr/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "obscheck:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		metricsURL = flag.String("metrics", "", "scrape and validate this /metrics URL")
		tracePath  = flag.String("trace", "", "validate this Chrome trace-event JSON file")
		jobs       = flag.Int("jobs", -1, "with -metrics: executed-job count; sims_executed_total and the queue-wait/lease-duration/store-flush histogram _counts must all equal it (-1 skips)")
		simWall    = flag.Int("sim-wall", -1, "with -metrics: required secddr_job_sim_wall_us_count (-1 skips)")
		remote     = flag.Int("remote", -1, "with -metrics: required secddr_jobs_remote_done_total (-1 skips)")
	)
	flag.Parse()
	switch {
	case *metricsURL != "":
		return checkMetrics(*metricsURL, *jobs, *simWall, *remote)
	case *tracePath != "":
		return checkTrace(*tracePath)
	}
	return fmt.Errorf("need -metrics URL or -trace FILE")
}

// histograms every server must expose, whatever its execution mode.
var requiredHistograms = []string{
	"secddr_queue_wait_us",
	"secddr_lease_duration_us",
	"secddr_job_sim_wall_us",
	"secddr_store_flush_us",
}

func checkMetrics(url string, jobs, simWall, remote int) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return fmt.Errorf("%s is not valid text exposition: %w", url, err)
	}

	bi, ok := fams["secddr_build_info"]
	if !ok || bi.Type != "gauge" || len(bi.Samples) != 1 {
		return fmt.Errorf("secddr_build_info: want one gauge sample, got %+v", bi)
	}
	s := bi.Samples[0]
	if s.Value != 1 || s.Labels["version"] == "" || s.Labels["revision"] == "" {
		return fmt.Errorf("secddr_build_info sample %+v: want value 1 with version and revision labels", s)
	}

	for _, name := range requiredHistograms {
		fam, ok := fams[name]
		if !ok {
			return fmt.Errorf("histogram %s missing from exposition", name)
		}
		if fam.Type != "histogram" {
			return fmt.Errorf("%s declared %q, want histogram", name, fam.Type)
		}
	}

	if jobs >= 0 {
		if err := wantValue(fams, "secddr_sims_executed_total", float64(jobs)); err != nil {
			return err
		}
		// Every executed job waited in the queue once (its final wait),
		// held exactly one completed lease, and flushed one store record;
		// a mismatch means an observation path was dropped or doubled.
		for _, name := range []string{"secddr_queue_wait_us", "secddr_lease_duration_us", "secddr_store_flush_us"} {
			if err := wantHistCount(fams, name, float64(jobs)); err != nil {
				return err
			}
		}
	}
	if simWall >= 0 {
		if err := wantHistCount(fams, "secddr_job_sim_wall_us", float64(simWall)); err != nil {
			return err
		}
	}
	if remote >= 0 {
		if err := wantValue(fams, "secddr_jobs_remote_done_total", float64(remote)); err != nil {
			return err
		}
	}

	fmt.Printf("ok: %s — %d metric families, build %s (%s)\n",
		url, len(fams), s.Labels["version"], s.Labels["revision"])
	return nil
}

func wantValue(fams map[string]*obs.MetricFamily, name string, want float64) error {
	fam, ok := fams[name]
	if !ok {
		return fmt.Errorf("%s missing from exposition", name)
	}
	got, ok := fam.Value()
	if !ok {
		return fmt.Errorf("%s has no unlabelled sample", name)
	}
	if got != want {
		return fmt.Errorf("%s = %g, want %g", name, got, want)
	}
	return nil
}

func wantHistCount(fams map[string]*obs.MetricFamily, name string, want float64) error {
	fam := fams[name] // presence checked above
	for _, s := range fam.Samples {
		if s.Name == name+"_count" {
			if s.Value != want {
				return fmt.Errorf("%s_count = %g, want %g", name, s.Value, want)
			}
			return nil
		}
	}
	return fmt.Errorf("%s has no _count sample", name)
}

// traceDoc mirrors the Chrome trace-event JSON object internal/obs emits.
type traceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData"`
}

func checkTrace(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc traceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("%s is not valid JSON: %w", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("%s: empty traceEvents array", path)
	}

	last := -1.0
	cats := map[string]bool{}
	phases := map[string]int{}
	for i, e := range doc.TraceEvents {
		if e.Ts < last {
			return fmt.Errorf("%s: timestamps not monotone at event %d (%v after %v)", path, i, e.Ts, last)
		}
		last = e.Ts
		cats[e.Cat] = true
		phases[e.Ph]++
		switch e.Ph {
		case "i", "X", "C":
		default:
			return fmt.Errorf("%s: event %d has unexpected phase %q", path, i, e.Ph)
		}
		if e.Ph == "C" && e.Args["value"] == nil {
			return fmt.Errorf("%s: counter event %d (%s) has no value arg", path, i, e.Name)
		}
		if e.Ph == "X" && e.Dur < 0 {
			return fmt.Errorf("%s: span event %d (%s) has negative duration", path, i, e.Name)
		}
	}
	// Any simulated run emits run markers, per-channel DRAM spans, and the
	// MSHR-occupancy counter track ("phase" instants only appear for
	// phase-switching scenarios, so they are not required here).
	for _, want := range []string{"run", "dram", "mem"} {
		if !cats[want] {
			return fmt.Errorf("%s: expected category %q missing (have %v)", path, want, keys(cats))
		}
	}
	for _, ph := range []string{"i", "X", "C"} {
		if phases[ph] == 0 {
			return fmt.Errorf("%s: no %q events (markers, spans, and counter samples must all appear)", path, ph)
		}
	}
	if _, err := strconv.Atoi(doc.OtherData["dropped_events"]); err != nil {
		return fmt.Errorf("%s: otherData.dropped_events = %q, want an integer", path, doc.OtherData["dropped_events"])
	}
	if doc.OtherData["clock_mhz"] == "" {
		return fmt.Errorf("%s: otherData.clock_mhz missing", path)
	}

	fmt.Printf("ok: %s — %d events (%d markers, %d spans, %d counter samples), dropped %s\n",
		path, len(doc.TraceEvents), phases["i"], phases["X"], phases["C"], doc.OtherData["dropped_events"])
	return nil
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
