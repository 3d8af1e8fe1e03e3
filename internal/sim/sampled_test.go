package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"secddr/internal/config"
	"secddr/internal/scenario"
	"secddr/internal/trace"
)

// testFidelity returns sampling knobs sized for the short test regions:
// 6000-instruction periods over a 40k-instruction measured region give six
// measurement windows, enough for a t-based interval that is tight but not
// degenerate.
func testFidelity() Fidelity {
	return Fidelity{
		Mode:         FidelitySampled,
		WindowInstr:  1500,
		PeriodInstr:  8000,
		WarmrunInstr: 3000,
	}
}

// requireSampledTolerance runs opt exact and sampled and asserts the
// tolerance property the sampled mode is validated by: for IPC and
// bandwidth, the sampled 95% confidence interval must contain the
// exact-loop value. This is tolerance, not identity — the sampled loop
// skips most of the region, so its point estimates legitimately differ;
// what must hold is that the reported uncertainty covers the truth.
func requireSampledTolerance(t *testing.T, opt Options) {
	t.Helper()
	exact, err := Run(opt)
	if err != nil {
		t.Fatalf("exact run: %v", err)
	}
	opt.Fidelity = testFidelity()
	sampled, err := Run(opt)
	if err != nil {
		t.Fatalf("sampled run: %v", err)
	}
	for metric, want := range map[string]float64{
		"ipc":           exact.IPC,
		"bandwidth_gbs": exact.BandwidthGBs,
	} {
		est, ok := sampled.Estimates[metric]
		if !ok {
			t.Fatalf("sampled run has no %q estimate", metric)
		}
		if est.Windows < 4 {
			t.Errorf("%s: only %d windows, interval too weak to mean anything", metric, est.Windows)
		}
		if math.Abs(est.Mean-want) > est.CI95 {
			t.Errorf("%s: exact %.4f outside sampled %.4f ± %.4f (%d windows)",
				metric, want, est.Mean, est.CI95, est.Windows)
		}
	}
	// Both modes retire the full region; they may differ by a few
	// instructions of retire-width overshoot (fast-forward hits targets
	// exactly, the detailed loop crosses them).
	if d := int64(sampled.Instructions) - int64(exact.Instructions); d > 64 || d < -64 {
		t.Errorf("sampled retired %d instructions, exact %d — want the same region within retire-width slack",
			sampled.Instructions, exact.Instructions)
	}
}

// TestSampledToleranceMatrix is the sampled mode's validation suite:
// CI-contains-exact across security modes, workloads, a scripted scenario,
// and non-default core/channel counts.
func TestSampledToleranceMatrix(t *testing.T) {
	base := func(name string, mode config.Mode) Options {
		p, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %s", name)
		}
		return Options{
			Config:       config.Table1(mode),
			Workload:     p,
			InstrPerCore: 40_000,
			WarmupInstr:  20_000,
			Seed:         42,
		}
	}
	points := map[string]Options{}
	for _, name := range []string{"mcf", "lbm", "pr"} {
		for _, mode := range []config.Mode{config.ModeSecDDRCTR, config.ModeIntegrityTree} {
			points[name+"/"+mode.String()] = base(name, mode)
		}
	}
	points["mcf/unprotected"] = base("mcf", config.ModeUnprotected)

	single := base("mcf", config.ModeSecDDRXTS)
	single.Config.Core.NumCores = 1
	single.Config.Normalize()
	points["mcf/secddr-xts/1core"] = single

	multi := base("pr", config.ModeSecDDRCTR)
	multi.Config.DRAM.Channels = 2
	multi.Config.Normalize()
	points["pr/secddr-ctr/2ch"] = multi

	sc, ok := scenario.ByName("markov-server")
	if !ok {
		t.Fatal("unknown scenario markov-server")
	}
	points["markov-server/secddr-ctr"] = Options{
		Config:       config.Table1(config.ModeSecDDRCTR),
		Scenario:     sc,
		InstrPerCore: 40_000,
		WarmupInstr:  20_000,
		Seed:         42,
	}

	for name, opt := range points {
		name, opt := name, opt
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			requireSampledTolerance(t, opt)
		})
	}
}

// TestSampledRunWithinDefaultMaxCycles pins the withDefaults contract the
// Options doc promises: the default cycle cap (400x the instruction
// target) covers sampled runs too, including the estimated cycles their
// fast-forward spans add, so callers never need a fidelity-specific cap.
func TestSampledRunWithinDefaultMaxCycles(t *testing.T) {
	p, _ := trace.ByName("lbm")
	opt := Options{
		Config:       config.Table1(config.ModeIntegrityTree),
		Workload:     p,
		InstrPerCore: 40_000,
		WarmupInstr:  20_000,
		Seed:         42,
		Fidelity:     testFidelity(),
	}
	res, err := Run(opt) // MaxCycles zero: the default must suffice
	if err != nil {
		t.Fatalf("sampled run under default MaxCycles: %v", err)
	}
	if res.Cycles > opt.withDefaults().MaxCycles {
		t.Errorf("cycles %d exceed the default cap %d", res.Cycles, opt.withDefaults().MaxCycles)
	}
}

// TestSampledRunHonorsTinyMaxCycles: an explicit cap too small for the run
// must fail loudly, never silently truncate the estimates.
func TestSampledRunHonorsTinyMaxCycles(t *testing.T) {
	p, _ := trace.ByName("mcf")
	_, err := Run(Options{
		Config:       config.Table1(config.ModeSecDDRCTR),
		Workload:     p,
		InstrPerCore: 40_000,
		WarmupInstr:  20_000,
		Seed:         42,
		MaxCycles:    30_000,
		Fidelity:     testFidelity(),
	})
	if err == nil || !strings.Contains(err.Error(), "cycle cap") {
		t.Fatalf("want cycle-cap error, got %v", err)
	}
}

// TestSampledForkMatchesColdSampled: sampled runs fork from the same
// warmed snapshots exact runs do (Fidelity is deliberately outside
// WarmupKey), and a fork must reproduce the cold sampled run exactly.
func TestSampledForkMatchesColdSampled(t *testing.T) {
	p, _ := trace.ByName("mcf")
	opt := Options{
		Config:       config.Table1(config.ModeSecDDRCTR),
		Workload:     p,
		InstrPerCore: 40_000,
		WarmupInstr:  20_000,
		Seed:         42,
		Fidelity:     testFidelity(),
	}
	exact := opt
	exact.Fidelity = Fidelity{}
	if opt.WarmupKey() != exact.WarmupKey() {
		t.Fatalf("sampled fidelity changed WarmupKey: %s vs %s — sampled points must share exact points' warmups",
			opt.WarmupKey()[:16], exact.WarmupKey()[:16])
	}
	w, err := Warmup(opt)
	if err != nil {
		t.Fatal(err)
	}
	forked, err := w.Fork(opt)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, forked) {
		t.Errorf("sampled fork diverges from cold sampled run:\ncold: %+v\nfork: %+v", cold, forked)
	}
}

// TestSampledEarlyStopOnTargetCI: with a loose CI target the run may stop
// sampling once the interval converges, but it must still retire the full
// instruction target and report at least minSampleWindows windows.
func TestSampledEarlyStopOnTargetCI(t *testing.T) {
	p, _ := trace.ByName("mcf")
	opt := Options{
		Config:       config.Table1(config.ModeSecDDRCTR),
		Workload:     p,
		InstrPerCore: 200_000,
		WarmupInstr:  20_000,
		Seed:         42,
		Fidelity: Fidelity{
			Mode:         FidelitySampled,
			WindowInstr:  1500,
			PeriodInstr:  6000,
			WarmrunInstr: 1500,
			TargetCI:     0.5, // loose: converges well before the region ends
		},
	}
	res, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(func() Options { o := opt; o.Fidelity.TargetCI = 0; return o }())
	if err != nil {
		t.Fatal(err)
	}
	est := res.Estimates["ipc"]
	if est.Windows < minSampleWindows {
		t.Errorf("early stop with %d windows, want >= %d", est.Windows, minSampleWindows)
	}
	if full.Estimates["ipc"].Windows <= est.Windows {
		t.Errorf("early stop did not stop early: %d windows with target vs %d without",
			est.Windows, full.Estimates["ipc"].Windows)
	}
	if res.Instructions < 4*200_000-64 {
		t.Errorf("early stop truncated the region: %d instructions retired", res.Instructions)
	}
}

// TestExactRunHasNoEstimates: the estimates block is a sampled-mode
// surface; exact results must not grow one.
func TestExactRunHasNoEstimates(t *testing.T) {
	res := runWorkload(t, "mcf", config.ModeSecDDRCTR, 20_000)
	if res.Estimates != nil {
		t.Errorf("exact run produced estimates: %+v", res.Estimates)
	}
}

// TestParseFidelity pins the command-line rule for a CI target: alone it
// selects sampled fidelity, with sampled it is kept, and with exact it is
// an error rather than a target the run silently ignores.
func TestParseFidelity(t *testing.T) {
	for _, tc := range []struct {
		mode string
		ci   float64
		want Fidelity
		ok   bool
	}{
		{"", 0, Fidelity{}, true},
		{"exact", 0, Fidelity{}, true},
		{"sampled", 0, Fidelity{Mode: FidelitySampled}, true},
		{"", 0.05, Fidelity{Mode: FidelitySampled, TargetCI: 0.05}, true},
		{"sampled", 0.05, Fidelity{Mode: FidelitySampled, TargetCI: 0.05}, true},
		{"exact", 0.05, Fidelity{}, false},
		{"sampled-v2", 0, Fidelity{}, false},
	} {
		got, err := ParseFidelity(tc.mode, tc.ci)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseFidelity(%q, %g) = %+v, %v; want %+v, ok=%v", tc.mode, tc.ci, got, err, tc.want, tc.ok)
		}
	}
}
