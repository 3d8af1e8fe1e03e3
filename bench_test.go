// Benchmarks regenerating each table and figure of the paper's evaluation
// at reduced scale (the cmd/secddr-figures tool runs figure-quality
// sweeps). Each benchmark reports the headline numbers it reproduces as
// custom metrics, so `go test -bench=. -benchmem` doubles as a one-shot
// reproduction summary:
//
//	BenchmarkFig6_Performance    — normalized-IPC gmeans of the 5 configs
//	BenchmarkFig7_MetadataCache  — metadata miss rate span
//	BenchmarkFig8_Arity          — 8/64/128-ary sensitivity bars
//	BenchmarkFig10_InvisiMemXTS  — authenticated-channel comparison (XTS)
//	BenchmarkFig12_InvisiMemCNT  — same with counter-mode encryption
//	BenchmarkTable1_Simulation   — raw simulator throughput on Table I
//	BenchmarkSweepCached         — harness result-store cache-hit path
//	BenchmarkTable2_Power        — analytical power model
//	BenchmarkSecIIIB_EWCRC       — brute-force security analysis
//	BenchmarkProtocol*           — functional-model wire-protocol speed
//	BenchmarkAttestation         — full authenticated key exchange
package secddr_test

import (
	"crypto/rand"
	"path/filepath"
	"strings"
	"testing"

	"secddr"
	"secddr/internal/analysis"
	"secddr/internal/attest"
	"secddr/internal/config"
	"secddr/internal/experiments"
	"secddr/internal/harness"
	"secddr/internal/sim"
	"secddr/internal/trace"
)

// benchScale keeps figure benches to a few seconds: a representative
// workload triplet (pointer-chase, write-streaming, graph) at smoke scale.
func benchScale() experiments.Scale {
	s := experiments.QuickScale()
	s.InstrPerCore = 60_000
	s.WarmupInstr = 30_000
	s.Workloads = []string{"mcf", "lbm", "pr"}
	return s
}

func BenchmarkFig6_Performance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig6(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, label := range []string{"tree-64ary", "secddr+ctr", "secddr+xts"} {
			_, all := fig.GeoMeans(label)
			b.ReportMetric(all, label+"-gmean")
		}
	}
}

func BenchmarkFig7_MetadataCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		var max float64
		for _, r := range rows {
			if r.MetaMissRate > max {
				max = r.MetaMissRate
			}
		}
		b.ReportMetric(max, "max-meta-missrate")
	}
}

func BenchmarkFig8_Arity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bars, err := experiments.Fig8(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, bar := range bars {
			if bar.Label == "tree" {
				b.ReportMetric(bar.Value, "tree-"+bar.Group+"ary")
			}
		}
	}
}

func BenchmarkFig10_InvisiMemXTS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig10(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, label := range []string{"invisimem-real@2400", "secddr"} {
			_, all := fig.GeoMeans(label)
			b.ReportMetric(all, label+"-gmean")
		}
	}
}

func BenchmarkFig12_InvisiMemCNT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig12(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, label := range []string{"invisimem-real@2400", "secddr"} {
			_, all := fig.GeoMeans(label)
			b.ReportMetric(all, label+"-gmean")
		}
	}
}

// BenchmarkTable1_Simulation measures raw simulator speed (simulated
// instructions per wall-second) on the Table I configuration.
func BenchmarkTable1_Simulation(b *testing.B) {
	wl, _ := secddr.WorkloadByName("omnetpp")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Options{
			Config:       secddr.Table1(secddr.ModeSecDDRXTS),
			Workload:     wl,
			InstrPerCore: 50_000,
			WarmupInstr:  10_000,
			Seed:         uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.IPC, "sim-IPC")
	}
}

// BenchmarkSweepCached measures the harness cache-hit path: a Fig. 6-shaped
// campaign served entirely from a warm result store, i.e. the fixed overhead a
// resumed sweep pays per already-computed point.
func BenchmarkSweepCached(b *testing.B) {
	mustProfile := func(name string) trace.Profile {
		p, ok := trace.ByName(name)
		if !ok {
			b.Fatalf("workload %q missing", name)
		}
		return p
	}
	grid := harness.Grid{
		Workloads: []trace.Profile{mustProfile("mcf"), mustProfile("lbm"), mustProfile("pr")},
		Configs: append([]harness.NamedConfig{
			{Label: "tdx-baseline", Config: config.Table1(config.ModeEncryptOnlyCTR)},
		}, experiments.Fig6Configs()...),
		InstrPerCore: 20_000,
		WarmupInstr:  5_000,
		Seed:         42,
	}
	st, err := secddr.OpenResultStore(filepath.Join(b.TempDir(), "store"))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	c := harness.Campaign{Jobs: grid.Jobs(), Store: st}
	if _, _, err := harness.Run(c); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := harness.Run(c)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Executed != 0 {
			b.Fatalf("warm store missed: %+v", stats)
		}
	}
	b.ReportMetric(float64(len(c.Jobs)), "points/op")
}

// forkSweepJobs is a stall-heavy one-group sweep: one pointer-chasing
// workload under three security modes, with a warmup three times the
// measured region — the shape where fork-after-warmup pays most.
func forkSweepJobs(b *testing.B) []harness.Job {
	mcf, ok := trace.ByName("mcf")
	if !ok {
		b.Fatal("workload mcf missing")
	}
	modes := []config.Mode{config.ModeSecDDRXTS, config.ModeIntegrityTree, config.ModeSecDDRCTR}
	jobs := make([]harness.Job, 0, len(modes))
	for _, m := range modes {
		cfg := config.Table1(m)
		cfg.Core.NumCores = 1
		jobs = append(jobs, harness.Job{
			Key: "mcf/" + m.String(),
			Opt: sim.Options{
				Config:       cfg,
				Workload:     mcf,
				InstrPerCore: 40_000,
				WarmupInstr:  120_000,
				Seed:         42,
			},
		})
	}
	return jobs
}

// BenchmarkForkedSweep runs the stall-heavy sweep with the default
// fork-after-warmup scheduler: one warmup, three forks.
func BenchmarkForkedSweep(b *testing.B) {
	jobs := forkSweepJobs(b)
	for i := 0; i < b.N; i++ {
		if _, stats, err := harness.Run(harness.Campaign{Jobs: jobs, Workers: 1}); err != nil {
			b.Fatal(err)
		} else if stats.Executed != len(jobs) {
			b.Fatalf("stats = %+v, want %d executed", stats, len(jobs))
		}
	}
}

// BenchmarkColdSweep is the same sweep forced cold (Sim: sim.Run bypasses
// the fork scheduler), paying one full warmup per point. The
// ForkedSweep/ColdSweep ratio is the headline speedup of PR 6.
func BenchmarkColdSweep(b *testing.B) {
	jobs := forkSweepJobs(b)
	for i := 0; i < b.N; i++ {
		if _, stats, err := harness.Run(harness.Campaign{Jobs: jobs, Workers: 1, Sim: sim.Run}); err != nil {
			b.Fatal(err)
		} else if stats.Executed != len(jobs) {
			b.Fatalf("stats = %+v, want %d executed", stats, len(jobs))
		}
	}
}

// BenchmarkSampledSweep is the same stall-heavy sweep at sampled fidelity
// with the warmup snapshot hoisted outside the timer: it measures the
// marginal cost of a sampled point once the shared warmup exists, the
// steady state of a wide sweep amortizing one warmup over many points
// (the warmup phase is fidelity-independent, so sampled points fork from
// the same snapshots as exact ones). The ColdSweep/SampledSweep ratio is
// the headline speedup of the sampled fidelity.
func BenchmarkSampledSweep(b *testing.B) {
	jobs := forkSweepJobs(b)
	for i := range jobs {
		jobs[i].Opt.Fidelity = sim.Fidelity{Mode: sim.FidelitySampled}
	}
	warmed, err := sim.Warmup(jobs[0].Opt)
	if err != nil {
		b.Fatal(err)
	}
	// One throwaway fork per point populates the snapshot's per-
	// configuration primed-metadata memo, the state a mixed-fidelity grid
	// is always in by the time its sampled points run (every point forks
	// from the shared snapshot once per fidelity, and the exact fork
	// primes first).
	for _, j := range jobs {
		if _, err := warmed.Fork(j.Opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			res, err := warmed.Fork(j.Opt)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Estimates) == 0 {
				b.Fatalf("%s: sampled point returned no estimates", j.Key)
			}
		}
	}
}

func BenchmarkTable2_Power(b *testing.B) {
	unit := analysis.ReferenceAESUnit()
	for i := 0; i < b.N; i++ {
		for _, chip := range analysis.Table2Configs() {
			r := analysis.AESPower(chip, unit)
			name := strings.ReplaceAll(r.Name, " ", "-")
			b.ReportMetric(r.OverheadPerRank*100, name+"-overhead-%")
		}
	}
}

func BenchmarkSecIIIB_EWCRC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := analysis.EWCRCBruteForce(analysis.PaperEWCRCParams())
		b.ReportMetric(res.AttackYears, "attack-years")
	}
}

// BenchmarkProtocolWrite measures functional-model write throughput
// (full crypto: CMAC, OTP, eWCRC, SECDED).
func BenchmarkProtocolWrite(b *testing.B) {
	sys, err := secddr.NewSystem(secddr.ProtocolSecDDR, secddr.DefaultGeometry(), secddr.TestKeys(), 0)
	if err != nil {
		b.Fatal(err)
	}
	var line [64]byte
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Write(uint64(i%4096)*64, line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolRead measures verified-read throughput.
func BenchmarkProtocolRead(b *testing.B) {
	sys, err := secddr.NewSystem(secddr.ProtocolSecDDR, secddr.DefaultGeometry(), secddr.TestKeys(), 0)
	if err != nil {
		b.Fatal(err)
	}
	var line [64]byte
	for i := 0; i < 4096; i++ {
		if err := sys.Write(uint64(i)*64, line); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Read(uint64(i%4096) * 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttestation measures the boot-time handshake (Section III-F:
// "attestation is infrequent and only incurs a slight slowdown").
func BenchmarkAttestation(b *testing.B) {
	ca, err := attest.NewCA(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	id, err := attest.Manufacture(ca, "bench-dimm", 0, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := attest.StartExchange(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		resp, _, err := id.Respond(sess.Hello(), rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Finish(resp, ca.PublicKey(), ca.Revoked); err != nil {
			b.Fatal(err)
		}
	}
}
