package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestBenchLineParsing(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: secddr/internal/sim
cpu: Intel(R) Xeon(R) Processor
BenchmarkQuickScaleEventDriven-8   	       1	241221170 ns/op	         1.146 Mcycles/s
BenchmarkQuickScaleEventDriven-8   	       1	250000000 ns/op	         1.101 Mcycles/s
BenchmarkStoreFlush/checkpoint-v1-8         	     100	   1520000 ns/op
BenchmarkStoreFlush/resultstore-8           	     100	      5200 ns/op
BenchmarkControllerTick/saturated-8         	   20000	      1415 ns/op	      16 B/op	       0 allocs/op
BenchmarkControllerTick/saturated-8         	   20000	      1390 ns/op	      48 B/op	       1 allocs/op
PASS
ok  	secddr/internal/sim	1.2s
`
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newSamples()
	if err := parseFile(path, s); err != nil {
		t.Fatal(err)
	}
	samples := s.ns
	// The -8 GOMAXPROCS suffix is stripped; sub-benchmark names (including
	// ones ending in a non-numeric dash segment like -v1) survive intact.
	if got := samples["BenchmarkQuickScaleEventDriven"]; len(got) != 2 {
		t.Fatalf("EventDriven samples = %v", got)
	}
	if got := samples["BenchmarkStoreFlush/checkpoint-v1"]; len(got) != 1 || got[0] != 1520000 {
		t.Fatalf("checkpoint-v1 samples = %v", got)
	}
	if got := samples["BenchmarkStoreFlush/resultstore"]; len(got) != 1 || got[0] != 5200 {
		t.Fatalf("resultstore samples = %v", got)
	}
	// -benchmem columns are collected per benchmark; lines without them
	// contribute none.
	const tick = "BenchmarkControllerTick/saturated"
	if got := samples[tick]; len(got) != 2 || got[0] != 1415 {
		t.Fatalf("ControllerTick ns samples = %v", got)
	}
	if got := s.bytes[tick]; len(got) != 2 || got[0] != 16 || got[1] != 48 {
		t.Fatalf("ControllerTick B/op samples = %v", got)
	}
	if got := s.allocs[tick]; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("ControllerTick allocs/op samples = %v", got)
	}
	if len(s.bytes["BenchmarkQuickScaleEventDriven"]) != 0 || len(s.allocs["BenchmarkQuickScaleEventDriven"]) != 0 {
		t.Fatalf("memory samples invented for a line without -benchmem columns")
	}
	if m := medianOrNil(s.allocs[tick]); m == nil || *m != 0.5 {
		t.Fatalf("allocs/op median = %v, want 0.5", m)
	}
	if m := medianOrNil(s.allocs["BenchmarkQuickScaleEventDriven"]); m != nil {
		t.Fatalf("allocs/op median without samples = %v, want nil", *m)
	}
}

func TestGeomean(t *testing.T) {
	// A 2x speedup and a 2x slowdown must cancel exactly.
	if g := geomean([]float64{2, 0.5}); math.Abs(g-1) > 1e-12 {
		t.Fatalf("geomean(2, 0.5) = %v, want 1", g)
	}
	if g := geomean([]float64{4}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean(4) = %v, want 4", g)
	}
	if g := geomean([]float64{1.1, 1.1, 1.1}); math.Abs(g-1.1) > 1e-12 {
		t.Fatalf("geomean(1.1 x3) = %v, want 1.1", g)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
	// median must not mutate its input ordering
	in := []float64{9, 1, 5}
	_ = median(in)
	if in[0] != 9 || in[2] != 5 {
		t.Fatalf("median mutated input: %v", in)
	}
}
