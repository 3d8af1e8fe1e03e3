// Command bench-compare gates CI on benchmark regressions: it parses one
// or more `go test -bench` output files (run with -count >= 5 so every
// benchmark contributes several samples), reduces each benchmark to its
// median ns/op — single runs on shared CI hosts swing +/-30%, medians of
// repetitions are the only stable statistic — and compares those medians
// against a committed baseline (BENCH_baseline.json), failing on any
// regression beyond the threshold.
//
// Record a baseline (after an intentional performance change, on the same
// host class and -benchtime settings the CI job uses):
//
//	go test -run '^$' -bench ... -benchtime 1x -count 5 ./internal/sim > sim.txt
//	go run scripts/bench-compare.go -record -out BENCH_baseline.json sim.txt ...
//
// Compare (what CI runs; also writes the run's medians as a JSON artifact
// so the bench trajectory can be charted across pushes):
//
//	go run scripts/bench-compare.go -baseline BENCH_baseline.json \
//	    -out bench-current.json sim.txt harness.txt
//
// When the runs used -benchmem, the medians of B/op and allocs/op are
// written next to ns/op in the -out JSON. They are reported, never gated.
//
// Medians are compared host-to-host, so the baseline is only meaningful
// for the host class it was recorded on; re-record it when the CI runner
// generation changes (the failure message says how).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
)

// Baseline is the committed reference document.
type Baseline struct {
	Version    int              `json:"version"`
	RecordedOn string           `json:"recorded_on"` // host class hint, e.g. "linux/amd64"
	Note       string           `json:"note,omitempty"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// Entry is one benchmark's reduced statistic. The memory medians are
// present only for benchmarks run with -benchmem (or b.ReportAllocs) and
// are report-only: the gate compares ns/op alone.
type Entry struct {
	MedianNsPerOp     float64  `json:"median_ns_per_op"`
	Samples           int      `json:"samples"`
	MedianBytesPerOp  *float64 `json:"median_bytes_per_op,omitempty"`
	MedianAllocsPerOp *float64 `json:"median_allocs_per_op,omitempty"`
}

// samples collects each benchmark's per-repetition measurements: ns/op
// always, B/op and allocs/op when the line carries those columns.
type samples struct {
	ns, bytes, allocs map[string][]float64
}

func newSamples() samples {
	return samples{ns: map[string][]float64{}, bytes: map[string][]float64{}, allocs: map[string][]float64{}}
}

var (
	// benchLine matches `BenchmarkName[/sub]-8  	 5  	 12345 ns/op ...`.
	benchLine = regexp.MustCompile(`^(Benchmark\S+?)(-\d+)?\s+\d+\s+(\d+(?:\.\d+)?) ns/op`)
	// bytesCol and allocsCol match the -benchmem columns of such a line.
	bytesCol  = regexp.MustCompile(`\s(\d+(?:\.\d+)?) B/op`)
	allocsCol = regexp.MustCompile(`\s(\d+(?:\.\d+)?) allocs/op`)
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench-compare:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		baselinePath = flag.String("baseline", "", "committed baseline JSON to compare against")
		record       = flag.Bool("record", false, "record a new baseline instead of comparing")
		out          = flag.String("out", "", "write this run's medians as JSON (baseline format) to this file")
		threshold    = flag.Float64("threshold", 0.15, "fail when median ns/op regresses by more than this fraction")
		minSamples   = flag.Int("min-samples", 5, "minimum repetitions per benchmark for a meaningful median")
		note         = flag.String("note", "", "with -record: provenance note embedded in the baseline")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		return fmt.Errorf("no bench output files given")
	}
	if !*record && *baselinePath == "" {
		return fmt.Errorf("need -baseline FILE (or -record)")
	}

	got := newSamples()
	for _, path := range flag.Args() {
		if err := parseFile(path, got); err != nil {
			return err
		}
	}
	if len(got.ns) == 0 {
		return fmt.Errorf("no benchmark result lines found in %v", flag.Args())
	}

	current := Baseline{
		Version:    1,
		RecordedOn: runtime.GOOS + "/" + runtime.GOARCH,
		Note:       *note,
		Benchmarks: make(map[string]Entry, len(got.ns)),
	}
	for name, vals := range got.ns {
		current.Benchmarks[name] = Entry{
			MedianNsPerOp:     median(vals),
			Samples:           len(vals),
			MedianBytesPerOp:  medianOrNil(got.bytes[name]),
			MedianAllocsPerOp: medianOrNil(got.allocs[name]),
		}
	}
	if *out != "" {
		if err := writeJSON(*out, current); err != nil {
			return err
		}
	}
	if *record {
		names := sortedNames(current.Benchmarks)
		fmt.Printf("recorded %d benchmarks:\n", len(names))
		for _, n := range names {
			e := current.Benchmarks[n]
			fmt.Printf("  %-60s %14.0f ns/op (n=%d)\n", n, e.MedianNsPerOp, e.Samples)
		}
		if *out == "" {
			return fmt.Errorf("-record needs -out FILE")
		}
		return nil
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		return err
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", *baselinePath, err)
	}

	var failures []string
	var ratios []float64
	for _, name := range sortedNames(base.Benchmarks) {
		want := base.Benchmarks[name]
		got, ok := current.Benchmarks[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in baseline but not in this run (renamed or deleted? re-record the baseline)", name))
			continue
		}
		if got.Samples < *minSamples {
			failures = append(failures, fmt.Sprintf("%s: only %d samples, need >= %d for a stable median (run with -count %d)",
				name, got.Samples, *minSamples, *minSamples))
			continue
		}
		ratio := got.MedianNsPerOp / want.MedianNsPerOp
		ratios = append(ratios, ratio)
		verdict := "ok"
		switch {
		case ratio > 1+*threshold:
			verdict = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: median %.0f ns/op vs baseline %.0f (%+.1f%%, threshold %.0f%%)",
				name, got.MedianNsPerOp, want.MedianNsPerOp, (ratio-1)*100, *threshold*100))
		case ratio < 1-*threshold:
			verdict = "improved (consider re-recording the baseline)"
		}
		fmt.Printf("%-60s %14.0f ns/op  baseline %14.0f  %+7.1f%%  %s\n",
			name, got.MedianNsPerOp, want.MedianNsPerOp, (ratio-1)*100, verdict)
	}
	for _, name := range sortedNames(current.Benchmarks) {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Printf("%-60s %14.0f ns/op  (new, not gated; re-record the baseline to gate it)\n",
				name, current.Benchmarks[name].MedianNsPerOp)
		}
	}
	if len(ratios) > 0 {
		// Per-benchmark rows only show drift against the 15% gate; the
		// geomean of the ratios is the aggregate trend, so slow fleet-wide
		// regression that stays under the per-benchmark threshold still
		// shows up in the job log run after run.
		fmt.Printf("\ngeomean vs baseline: %+.1f%% across %d gated benchmarks\n",
			(geomean(ratios)-1)*100, len(ratios))
	}
	if len(failures) > 0 {
		fmt.Println()
		for _, f := range failures {
			fmt.Println("FAIL:", f)
		}
		return fmt.Errorf("%d benchmark regression(s); if intentional, re-record with: go run scripts/bench-compare.go -record -out %s <bench outputs>",
			len(failures), *baselinePath)
	}
	fmt.Printf("\nall %d gated benchmarks within %.0f%% of baseline\n", len(base.Benchmarks), *threshold*100)
	return nil
}

func parseFile(path string, s samples) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		// m[1] already excludes the trailing -GOMAXPROCS suffix, so names
		// stay comparable across differently sized hosts.
		name := m[1]
		s.ns[name] = append(s.ns[name], ns)
		appendCol(s.bytes, name, bytesCol, sc.Text())
		appendCol(s.allocs, name, allocsCol, sc.Text())
	}
	return sc.Err()
}

// appendCol appends the value re captures from line, if any, to dst[name].
func appendCol(dst map[string][]float64, name string, re *regexp.Regexp, line string) {
	if c := re.FindStringSubmatch(line); c != nil {
		if v, err := strconv.ParseFloat(c[1], 64); err == nil {
			dst[name] = append(dst[name], v)
		}
	}
}

// medianOrNil is median for optional columns: nil when no sample has one.
func medianOrNil(vals []float64) *float64 {
	if len(vals) == 0 {
		return nil
	}
	m := median(vals)
	return &m
}

// geomean is the geometric mean of current/baseline ratios — the one
// aggregate that weighs a 2x speedup and a 2x slowdown as cancelling,
// so it tracks overall drift without being dominated by the slowest
// benchmark.
func geomean(ratios []float64) float64 {
	sum := 0.0
	for _, r := range ratios {
		sum += math.Log(r)
	}
	return math.Exp(sum / float64(len(ratios)))
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedNames(m map[string]Entry) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
