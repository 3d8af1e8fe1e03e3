package sim

import (
	"testing"

	"secddr/internal/config"
	"secddr/internal/scenario"
	"secddr/internal/trace"
)

// benchOptions is the paper's Table 1 platform (four cores) on
// pointer-chasing mcf: memory-bound, but with enough miss-level parallelism
// that the channel stays fairly busy. Event-driven advance helps modestly
// here; the stall-heavy benchmark below is where it pays off.
func benchOptions(b *testing.B) Options {
	b.Helper()
	p, ok := trace.ByName("mcf")
	if !ok {
		b.Fatal("unknown workload mcf")
	}
	return Options{
		Config:       config.Table1(config.ModeUnprotected),
		Workload:     p,
		InstrPerCore: 60_000,
		WarmupInstr:  30_000,
		Seed:         42,
	}
}

// stallHeavyOptions is the regime the event-driven loop exists for: a
// single core chasing dependent misses under SecDDR+XTS, whose per-access
// crypto latency stretches every stall without adding DRAM traffic.
// Between sparse DRAM commands every component is provably inert and the
// loop fast-forwards (~88% of CPU cycles skipped). The long instruction
// count amortizes the fixed per-run setup (trace generators, LLC warming)
// that both loops share.
func stallHeavyOptions(b *testing.B) Options {
	b.Helper()
	p, ok := trace.ByName("mcf")
	if !ok {
		b.Fatal("unknown workload mcf")
	}
	cfg := config.Table1(config.ModeSecDDRXTS)
	cfg.Core.NumCores = 1
	return Options{
		Config:       cfg,
		Workload:     p,
		InstrPerCore: 1_000_000,
		WarmupInstr:  300_000,
		Seed:         42,
	}
}

// BenchmarkQuickScaleEventDriven measures the production event-driven loop
// on the Table 1 platform.
func BenchmarkQuickScaleEventDriven(b *testing.B) {
	opt := benchOptions(b)
	for i := 0; i < b.N; i++ {
		res, err := Run(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Cycles)/float64(b.Elapsed().Seconds())*float64(i+1)/1e6, "Mcycles/s")
	}
}

// BenchmarkQuickScaleTickLoop measures the cycle-by-cycle reference loop on
// the same point; the ratio to BenchmarkQuickScaleEventDriven is the
// event-driven speedup.
func BenchmarkQuickScaleTickLoop(b *testing.B) {
	opt := benchOptions(b)
	for i := 0; i < b.N; i++ {
		if _, err := runTickLoop(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuickScaleStallHeavyEventDriven measures the event-driven loop
// on the stall-heavy point.
func BenchmarkQuickScaleStallHeavyEventDriven(b *testing.B) {
	opt := stallHeavyOptions(b)
	for i := 0; i < b.N; i++ {
		res, err := Run(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Cycles)/float64(b.Elapsed().Seconds())*float64(i+1)/1e6, "Mcycles/s")
	}
}

// BenchmarkQuickScaleStallHeavyTickLoop is the reference loop on the
// stall-heavy point; the acceptance target is event-driven >= 2x faster.
func BenchmarkQuickScaleStallHeavyTickLoop(b *testing.B) {
	opt := stallHeavyOptions(b)
	for i := 0; i < b.N; i++ {
		if _, err := runTickLoop(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioPhaseSwitch measures the scenario engine's overhead on
// a phase-alternating schedule under SecDDR+CTR: the same simulator core
// as QuickScale plus per-op phase accounting and mid-run generator swaps.
func BenchmarkScenarioPhaseSwitch(b *testing.B) {
	scn, ok := scenario.ByName("phase-alternate")
	if !ok {
		b.Fatal("unknown scenario phase-alternate")
	}
	opt := Options{
		Config:       config.Table1(config.ModeSecDDRCTR),
		Scenario:     scn,
		InstrPerCore: 60_000,
		WarmupInstr:  30_000,
		Seed:         42,
	}
	for i := 0; i < b.N; i++ {
		res, err := Run(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.IPC, "sim-IPC")
	}
}

// BenchmarkWarmedFork measures the per-point fork cost: one deep copy of
// a warmed Table 1 snapshot on mcf (1.5 GiB footprint), without the
// measured run. B/op is what each forked point allocates up front; the
// generators' page tables are shared with the snapshot, not copied.
func BenchmarkWarmedFork(b *testing.B) {
	opt := benchOptions(b)
	w, err := Warmup(opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := w.sys.fork(); err != nil {
			b.Fatal(err)
		}
	}
}
