package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"secddr/internal/experiments"
)

// metricDef is one declared metric: its name in BENCHMARK.json and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees, reported by every
// untraced run. failed_frac is not among them: the result line carries it as
// failed/attempted, and an end-to-end metric may not read zero.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
}

// selfFracLayers are the packages the traced run's CPU profile is folded
// into, in report order; "wire" is encoding/json plus net/http.
var selfFracLayers = []string{
	"cpu", "cache", "memctrl", "dram", "secmem", "integrity", "trace",
	"sim", "harness", "service", "resultstore", "wire",
}

// configLabels are the Fig. 6 configuration labels every grid sweeps.
func configLabels() []string {
	var out []string
	for _, nc := range experiments.Fig6Configs() {
		out = append(out, nc.Label)
	}
	return out
}

// forkMetric names the per-label fork time metric; metric names may not
// contain '+', so "secddr+ctr" becomes "secddr_ctr".
func forkMetric(label string) string {
	return "sim.fork_ms." + strings.ReplaceAll(label, "+", "_")
}

// perLayer are the metrics of single layers, reported by every traced run.
// A layer the workload does not exercise reads 0.
func perLayer() []metricDef {
	defs := []metricDef{{"sim.warmup_ms", "ms"}}
	for _, l := range configLabels() {
		defs = append(defs, metricDef{forkMetric(l), "ms"})
	}
	defs = append(defs,
		metricDef{"sim.fork_ms.sampled", "ms"},
		metricDef{"sim.fork_first_over_memo", "ratio"},
		metricDef{"sim.cold_run_ms", "ms"},
		metricDef{"sim.host_ns_per_kcycle", "ns"},
		metricDef{"sim.host_ns_per_dram_cmd", "ns"},
		metricDef{"harness.warmups_per_point", "ratio"},
		metricDef{"harness.pool_util", "frac"},
		metricDef{"harness.cached_rerun_ms", "ms"},
		metricDef{"resultstore.open_ms", "ms"},
		metricDef{"resultstore.record_us", "us"},
		metricDef{"resultstore.lookup_us", "us"},
		metricDef{"resultstore.disk_bytes_per_point", "bytes"},
		metricDef{"service.submit_ms", "ms"},
		metricDef{"service.first_result_s", "s"},
		metricDef{"service.queue_wait_ms", "ms"},
		metricDef{"service.lease_wait_ms", "ms"},
		metricDef{"service.jobs_per_lease", "ratio"},
		metricDef{"service.upload_ms", "ms"},
		metricDef{"service.heartbeats", "count"},
		metricDef{"service.cached_resubmit_ms", "ms"},
		metricDef{"service.recover_ms", "ms"},
		metricDef{"service.wal_records", "count"},
	)
	for _, l := range selfFracLayers {
		defs = append(defs, metricDef{l + ".self_frac", "frac"})
	}
	return append(defs,
		metricDef{"runtime.gc_frac", "frac"},
		metricDef{"trace.overhead_frac", "frac"},
		metricDef{"failed_frac", "frac"},
	)
}

// metric is one reported value with the number of samples behind it (a
// median's sample count; 1 for a single measurement or a count).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// report collects a run's metrics by name.
type report map[string]metric

// set records a single measurement or count.
func (r report) set(name, unit string, v float64) {
	r[name] = metric{Value: v, Unit: unit, n: 1}
}

// none records that the workload does not exercise a metric's layer: 0,
// with no samples behind it.
func (r report) none(name, unit string) {
	r[name] = metric{Unit: unit}
}

// median records the median of samples; no samples reads 0.
func (r report) median(name, unit string, samples []float64) {
	r[name] = metric{Value: median(samples), Unit: unit, n: len(samples)}
}

// print writes one line per metric in declaration order: name, value,
// unit, and the sample count behind the value.
func (r report) print(w io.Writer, prefix string, defs []metricDef) {
	for _, d := range defs {
		m := r[d.name]
		what := "single measurement"
		if m.n > 1 {
			what = fmt.Sprintf("median of %d", m.n)
		} else if m.n == 0 {
			what = "no samples"
		}
		fmt.Fprintf(w, "%s%-36s %14.6g %-6s (%s)\n", prefix, d.name, m.Value, d.unit, what)
	}
}

// median returns the median of xs (0 for none) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
