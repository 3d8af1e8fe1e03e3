// Package experiments regenerates every table and figure in the paper's
// evaluation (Section V): Fig. 6 (overall performance across five
// configurations), Fig. 7 (metadata-cache behaviour), Fig. 8 (tree-arity
// and counter-packing sensitivity), Figs. 10/12 (InvisiMem comparison with
// XTS and counter-mode encryption), Table II (AES power), and the
// Section III-B security analysis. Each figure is a declarative workload x
// configuration grid executed by internal/harness (bounded worker pool,
// digest-keyed result caching and resume); results normalize IPC to the
// Intel-TDX-like baseline (encryption + ECC-chip MACs, no replay
// protection) exactly as the paper does.
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"

	"secddr/internal/config"
	"secddr/internal/harness"
	"secddr/internal/sim"
	"secddr/internal/stats"
	"secddr/internal/trace"
)

// Scale controls simulation length. Figure-quality runs use the default;
// benches and tests shrink it.
type Scale struct {
	InstrPerCore uint64
	WarmupInstr  uint64
	Seed         uint64
	Workers      int
	Workloads    []string // nil = all 29

	// Fidelity selects the execution mode for every point: the zero
	// value runs the exact cycle loop (figure-quality, unchanged
	// digests); a sampled fidelity runs interval sampling and the
	// normalized-figure emitters print each value with its propagated
	// 95% confidence half-width. Sampled and exact points cache under
	// distinct digests, so switching fidelity never aliases results.
	Fidelity sim.Fidelity

	// Store, when non-nil, is the harness's persistent result cache:
	// figure re-runs skip every already-computed point and interrupted
	// sweeps resume (see internal/harness and internal/resultstore).
	Store harness.Store

	// footprintOverride, when nonzero, replaces every profile's cold
	// working-set size (used by the footprint-scaling ablation).
	footprintOverride uint64
}

// DefaultScale returns figure-quality settings.
func DefaultScale() Scale {
	return Scale{InstrPerCore: 1_000_000, WarmupInstr: 300_000, Seed: 42}
}

// QuickScale returns settings for smoke runs and benchmarks.
func QuickScale() Scale {
	return Scale{InstrPerCore: 120_000, WarmupInstr: 60_000, Seed: 42}
}

func (s Scale) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	w := runtime.NumCPU() - 1
	if w < 1 {
		w = 1
	}
	return w
}

func (s Scale) profiles() ([]trace.Profile, error) {
	var out []trace.Profile
	if s.Workloads == nil {
		out = trace.Profiles()
	} else {
		for _, name := range s.Workloads {
			p, ok := trace.ByName(name)
			if !ok {
				return nil, fmt.Errorf("experiments: unknown workload %q", name)
			}
			out = append(out, p)
		}
	}
	if s.footprintOverride > 0 {
		for i := range out {
			out[i].Footprint = s.footprintOverride
			out[i].HotBytes = min(out[i].HotBytes, s.footprintOverride)
		}
	}
	return out, nil
}

// namedConfig pairs a configuration with its figure label.
type namedConfig = harness.NamedConfig

// runGrid executes one figure grid, g's configs crossed with its
// workloads, at the scale's instruction counts, seed, fidelity, workers
// and store. The workloads are g.Scenarios when set, else the scale's
// profiles. It returns the workload names in grid order and the results
// keyed "workload/label". All figures share one seed so every
// configuration sees the identical address stream, as in the paper.
func (s Scale) runGrid(g harness.Grid) ([]string, map[string]sim.Result, error) {
	if g.Scenarios == nil {
		profiles, err := s.profiles()
		if err != nil {
			return nil, nil, err
		}
		g.Workloads = profiles
	}
	names := make([]string, 0, len(g.Workloads)+len(g.Scenarios))
	for _, p := range g.Workloads {
		names = append(names, p.Name)
	}
	for _, scn := range g.Scenarios {
		names = append(names, scn.Name)
	}
	g.InstrPerCore, g.WarmupInstr, g.Seed = s.InstrPerCore, s.WarmupInstr, s.Seed
	// A single-fidelity axis keeps the "workload/label" keys unsuffixed,
	// so figure lookups are fidelity-agnostic.
	g.Fidelities = []sim.Fidelity{s.Fidelity}
	outs, _, err := harness.Run(harness.Campaign{
		Jobs:    g.Jobs(),
		Workers: s.workers(),
		Store:   s.Store,
	})
	if err != nil {
		return nil, nil, err
	}
	return names, harness.Index(outs), nil
}

// normalizedFigure runs baseline and configs over g's workloads (see
// runGrid) and normalizes each config's IPC to the baseline's.
func (s Scale) normalizedFigure(name string, g harness.Grid, baseline namedConfig, configs []namedConfig) (FigureResult, error) {
	g.Configs = append([]namedConfig{baseline}, configs...)
	workloads, results, err := s.runGrid(g)
	if err != nil {
		return FigureResult{}, err
	}
	labels := make([]string, len(configs))
	for i, nc := range configs {
		labels[i] = nc.Label
	}
	return normalize(name, workloads, results, baseline.Label, labels), nil
}

// Series is one labelled bar series across workloads (one figure line).
type Series struct {
	Label  string
	Values map[string]float64 // workload -> normalized value
	// CIs holds the 95% confidence half-width of each normalized value
	// for sampled-fidelity runs (nil on exact runs). Both numerator and
	// baseline are sampled estimates, so the ratio's relative CI is
	// their relative CIs combined in quadrature.
	CIs map[string]float64
}

// FigureResult is a complete reproduced figure.
type FigureResult struct {
	Name      string
	Workloads []string
	Series    []Series
}

// GeoMeans returns (gmean over memory-intensive, gmean over all) for one
// series, mirroring the paper's two gmean bars.
func (f FigureResult) GeoMeans(label string) (memInt, all float64) {
	intensive := map[string]bool{}
	for _, n := range trace.MemIntensiveNames() {
		intensive[n] = true
	}
	var s *Series
	for i := range f.Series {
		if f.Series[i].Label == label {
			s = &f.Series[i]
		}
	}
	if s == nil {
		return 0, 0
	}
	var mi, av []float64
	for _, w := range f.Workloads {
		v := s.Values[w]
		av = append(av, v)
		if intensive[w] {
			mi = append(mi, v)
		}
	}
	return stats.GeoMean(mi), stats.GeoMean(av)
}

// gmean is one series' geometric mean over all of the figure's
// workloads: the single value a Fig. 8 bar or an ablation row reports.
func (f FigureResult) gmean(label string) float64 {
	_, all := f.GeoMeans(label)
	return all
}

// Format renders the figure as an aligned text table with gmean rows.
func (f FigureResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", f.Name)
	fmt.Fprintf(&b, "%-12s", "workload")
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %22s", s.Label)
	}
	b.WriteByte('\n')
	for _, w := range f.Workloads {
		fmt.Fprintf(&b, "%-12s", w)
		for _, s := range f.Series {
			if ci, ok := s.CIs[w]; ok {
				fmt.Fprintf(&b, " %22s", fmt.Sprintf("%.3f ±%.3f", s.Values[w], ci))
			} else {
				fmt.Fprintf(&b, " %22.3f", s.Values[w])
			}
		}
		b.WriteByte('\n')
	}
	for _, row := range []string{"gmean-memint", "gmean-all"} {
		fmt.Fprintf(&b, "%-12s", row)
		for _, s := range f.Series {
			mi, all := f.GeoMeans(s.Label)
			v := all
			if row == "gmean-memint" {
				v = mi
			}
			fmt.Fprintf(&b, " %22.3f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// normalize is the one normalization rule behind every figure and
// ablation: each config's IPC on a workload over the baseline's IPC on
// the same workload, read from results keyed "workload/label". A
// workload whose baseline IPC is not positive has no value in any
// series; a config IPC that is not positive shows as 0 and, like a
// missing value, is left out of the geometric means. When both sides
// carry sampled IPC estimates the value carries their propagated 95% CI.
func normalize(name string, workloads []string, results map[string]sim.Result, baseline string, labels []string) FigureResult {
	fig := FigureResult{Name: name, Workloads: workloads}
	for _, label := range labels {
		s := Series{Label: label, Values: make(map[string]float64, len(workloads))}
		for _, w := range workloads {
			baseRes := results[w+"/"+baseline]
			res := results[w+"/"+label]
			if baseRes.IPC <= 0 {
				continue
			}
			v := res.IPC / baseRes.IPC
			s.Values[w] = v
			if ci, ok := ratioCI95(v, res, baseRes); ok {
				if s.CIs == nil {
					s.CIs = make(map[string]float64, len(workloads))
				}
				s.CIs[w] = ci
			}
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// ratioCI95 propagates the 95% confidence half-widths of two sampled IPC
// estimates onto their ratio: the windows are independent draws, so the
// ratio's relative half-width is the operands' relative half-widths
// combined in quadrature. Reports ok=false when either side ran exact.
func ratioCI95(ratio float64, num, den sim.Result) (float64, bool) {
	ne, nok := num.Estimates["ipc"]
	de, dok := den.Estimates["ipc"]
	if !nok || !dok || ne.Mean <= 0 || de.Mean <= 0 {
		return 0, false
	}
	rn := ne.CI95 / ne.Mean
	rd := de.CI95 / de.Mean
	return ratio * math.Sqrt(rn*rn+rd*rd), true
}

// tdxBaseline is the normalization reference used throughout the paper's
// figures: encryption plus ECC-chip MACs without replay protection.
func tdxBaseline() namedConfig {
	return namedConfig{Label: "tdx-baseline", Config: config.Table1(config.ModeEncryptOnlyCTR)}
}

// vsTDX runs cfgs and the TDX-like baseline over the scale's workloads
// and normalizes each config to the baseline.
func (s Scale) vsTDX(name string, cfgs []namedConfig) (FigureResult, error) {
	return s.normalizedFigure(name, harness.Grid{}, tdxBaseline(), cfgs)
}

// Fig6 reproduces the overall performance comparison: the 64-ary integrity
// tree, SecDDR+CTR, encrypt-only CTR, SecDDR+XTS, and encrypt-only XTS,
// normalized to the TDX-like baseline.
func Fig6(scale Scale) (FigureResult, error) {
	return scale.vsTDX("Fig. 6: normalized performance (IPC)", Fig6Configs())
}

// Fig6Configs returns the five evaluated configurations of Fig. 6 in
// figure order; cmd/secddr-sweep uses it as its default grid.
func Fig6Configs() []namedConfig {
	return []namedConfig{
		{Label: "tree-64ary", Config: config.Table1(config.ModeIntegrityTree)},
		{Label: "secddr+ctr", Config: config.Table1(config.ModeSecDDRCTR)},
		{Label: "encrypt-only-ctr", Config: config.Table1(config.ModeEncryptOnlyCTR)},
		{Label: "secddr+xts", Config: config.Table1(config.ModeSecDDRXTS)},
		{Label: "encrypt-only-xts", Config: config.Table1(config.ModeEncryptOnlyXTS)},
	}
}

// Fig7Row is one workload's bar pair in Fig. 7.
type Fig7Row struct {
	Workload     string
	LLCMPKI      float64
	MetaMissRate float64
}

// Fig7 reproduces the metadata-cache behaviour figure under the baseline
// integrity-tree configuration.
func Fig7(scale Scale) ([]Fig7Row, error) {
	workloads, results, err := scale.runGrid(harness.Grid{Configs: []namedConfig{
		{Label: "tree", Config: config.Table1(config.ModeIntegrityTree)},
	}})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig7Row, 0, len(workloads))
	for _, w := range workloads {
		r := results[w+"/tree"]
		rows = append(rows, Fig7Row{Workload: w, LLCMPKI: r.LLCMPKI, MetaMissRate: r.MetaMissRate})
	}
	return rows, nil
}

// FormatFig7 renders the Fig. 7 table.
func FormatFig7(rows []Fig7Row) string {
	var b strings.Builder
	b.WriteString("=== Fig. 7: metadata cache behaviour (baseline tree) ===\n")
	fmt.Fprintf(&b, "%-12s %10s %10s\n", "workload", "LLC MPKI", "miss rate")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10.2f %9.1f%%\n", r.Workload, r.LLCMPKI, r.MetaMissRate*100)
	}
	return b.String()
}

// Fig8Bar is one bar of the arity/packing sensitivity figure.
type Fig8Bar struct {
	Group string // "8", "64", "128" (arity / counters per line)
	Label string // "tree", "secddr", "encrypt-only"
	Value float64
}

// Fig8 reproduces the tree-arity and counter-packing sensitivity study:
// for each group {8, 64, 128}: an integrity tree of that arity (8-ary is a
// hash tree usable with XTS), SecDDR+CTR with that counter packing, and
// encrypt-only CTR with that packing. Values are gmean IPC over all
// workloads normalized to the TDX-like baseline.
func Fig8(scale Scale) ([]Fig8Bar, error) {
	mk := func(mode config.Mode, arity, packing int, hash bool) config.Config {
		c := config.Table1(mode)
		c.Security.TreeArity = arity
		c.Security.CountersPerLine = packing
		c.Security.HashTree = hash
		if hash {
			c.Security.Encryption = config.EncXTS
		}
		c.Normalize()
		return c
	}
	var bars []Fig8Bar
	var configs []namedConfig
	for _, g := range []int{8, 64, 128} {
		gs := fmt.Sprintf("%d", g)
		hash := g == 8 // the paper's 8-ary design is a hash tree over MACs
		for _, v := range []struct {
			label string
			cfg   config.Config
		}{
			{"tree", mk(config.ModeIntegrityTree, g, g, hash)},
			{"secddr", mk(config.ModeSecDDRCTR, g, g, false)},
			{"encrypt-only", mk(config.ModeEncryptOnlyCTR, g, g, false)},
		} {
			bars = append(bars, Fig8Bar{Group: gs, Label: v.label})
			configs = append(configs, namedConfig{Label: gs + "/" + v.label, Config: v.cfg})
		}
	}
	fig, err := scale.vsTDX("", configs)
	if err != nil {
		return nil, err
	}
	for i := range bars {
		bars[i].Value = fig.gmean(configs[i].Label)
	}
	return bars, nil
}

// FormatFig8 renders the sensitivity bars.
func FormatFig8(bars []Fig8Bar) string {
	var b strings.Builder
	b.WriteString("=== Fig. 8: tree-arity / counter-packing sensitivity (gmean, normalized) ===\n")
	for _, bar := range bars {
		fmt.Fprintf(&b, "%3s-ary/%3s cnt  %-12s %6.3f\n", bar.Group, bar.Group, bar.Label, bar.Value)
	}
	return b.String()
}

// invisiMemConfigs builds the four configurations of Figs. 10 and 12.
func invisiMemConfigs(enc config.EncryptionKind) []namedConfig {
	unreal := config.Table1(config.ModeInvisiMem)
	real := config.Table1(config.ModeInvisiMem)
	real.Security.InvisiMemRealistic = true
	var secddr, encOnly config.Config
	if enc == config.EncXTS {
		secddr = config.Table1(config.ModeSecDDRXTS)
		encOnly = config.Table1(config.ModeEncryptOnlyXTS)
	} else {
		secddr = config.Table1(config.ModeSecDDRCTR)
		encOnly = config.Table1(config.ModeEncryptOnlyCTR)
		unreal.Security.Encryption = config.EncCounterMode
		real.Security.Encryption = config.EncCounterMode
	}
	real.Normalize()
	unreal.Normalize()
	return []namedConfig{
		{Label: "invisimem-unreal@3200", Config: unreal},
		{Label: "invisimem-real@2400", Config: real},
		{Label: "secddr", Config: secddr},
		{Label: "encrypt-only", Config: encOnly},
	}
}

// Fig10 reproduces the InvisiMem comparison with AES-XTS everywhere.
func Fig10(scale Scale) (FigureResult, error) {
	return scale.vsTDX("Fig. 10: InvisiMem comparison (AES-XTS)", invisiMemConfigs(config.EncXTS))
}

// Fig12 reproduces the InvisiMem comparison with counter-mode encryption.
func Fig12(scale Scale) (FigureResult, error) {
	return scale.vsTDX("Fig. 12: InvisiMem comparison (counter-mode)", invisiMemConfigs(config.EncCounterMode))
}
