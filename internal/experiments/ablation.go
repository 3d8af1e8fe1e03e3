package experiments

import (
	"fmt"
	"strings"

	"secddr/internal/config"
	"secddr/internal/harness"
	"secddr/internal/scenario"
)

// AblationRow is one configuration point in an ablation sweep.
type AblationRow struct {
	Param string  // swept parameter value
	Label string  // configuration label
	Value float64 // gmean normalized IPC vs the TDX-like baseline
}

// FormatAblation renders an ablation table.
func FormatAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", title)
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-14s %6.3f\n", r.Param, r.Label, r.Value)
	}
	return b.String()
}

// protectedConfigs is the pair most ablations set against each other:
// the paper's 64-ary integrity tree and SecDDR+CTR.
func protectedConfigs() []namedConfig {
	return []namedConfig{
		{Label: "tree-64ary", Config: config.Table1(config.ModeIntegrityTree)},
		{Label: "secddr+ctr", Config: config.Table1(config.ModeSecDDRCTR)},
	}
}

// AblationScenarioMix sweeps the built-in scenario library (heterogeneous
// co-runners, phase-switching programs, attacker-among-benign mixes; see
// internal/scenario) under the integrity tree and SecDDR+CTR. Each row is
// total scenario IPC normalized to the TDX-like baseline on the same
// scenario: the workload classes the paper's stationary single-profile
// sweeps cannot express, and the regime where tree-walk amplification
// meets adversarial metadata pressure.
func AblationScenarioMix(scale Scale) ([]AblationRow, error) {
	fig, err := scale.normalizedFigure("", harness.Grid{Scenarios: scenario.Builtins()},
		tdxBaseline(), protectedConfigs())
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, w := range fig.Workloads {
		for _, s := range fig.Series {
			rows = append(rows, AblationRow{w, s.Label, s.Values[w]})
		}
	}
	return rows, nil
}

// AblationFootprintScaling sweeps the application footprint: the paper's
// central scalability argument. A larger protected working set spreads tree
// walks over more distinct leaf and mid-level nodes, collapsing the
// metadata-cache hit rate and deepening the effective walk; SecDDR's cost
// is footprint-independent. (Sweeping raw DRAM capacity with a fixed
// footprint is a no-op — the extra tree levels sit near the root and stay
// cache-resident — so the working set is the honest lever.)
func AblationFootprintScaling(scale Scale) ([]AblationRow, error) {
	var rows []AblationRow
	for _, mb := range []uint64{96, 384, 1536} {
		// Override every profile's footprint (hot/mid tiers keep their
		// sizes, so only the cold working set scales).
		fp := scale
		fp.footprintOverride = mb << 20
		fig, err := fp.vsTDX("", protectedConfigs())
		if err != nil {
			return nil, err
		}
		param := fmt.Sprintf("%dMB", mb)
		for _, s := range fig.Series {
			rows = append(rows, AblationRow{param, s.Label, fig.gmean(s.Label)})
		}
	}
	return rows, nil
}

// AblationEWCRC isolates the cost of SecDDR's only overhead source: the
// write-burst extension (BL8 -> BL10) plus eWCRC, versus E-MACs alone.
func AblationEWCRC(scale Scale) ([]AblationRow, error) {
	with := config.Table1(config.ModeSecDDRXTS)
	without := config.Table1(config.ModeSecDDRXTS)
	without.Security.EWCRC = false
	without.Normalize()
	fig, err := scale.vsTDX("", []namedConfig{
		{Label: "with-ewcrc", Config: with},
		{Label: "no-ewcrc", Config: without},
	})
	if err != nil {
		return nil, err
	}
	return []AblationRow{
		{"BL10", "with-ewcrc", fig.gmean("with-ewcrc")},
		{"BL8", "no-ewcrc", fig.gmean("no-ewcrc")},
	}, nil
}

// AblationMetadataCache sweeps the shared metadata cache size under the
// integrity-tree baseline: the design-capacity choice behind Table I's
// 128KB figure.
func AblationMetadataCache(scale Scale) ([]AblationRow, error) {
	var cfgs []namedConfig
	for _, kb := range []int{32, 64, 128, 256, 512} {
		c := config.Table1(config.ModeIntegrityTree)
		c.Security.MetadataCache.SizeBytes = kb << 10
		c.Normalize()
		cfgs = append(cfgs, namedConfig{Label: fmt.Sprintf("%dKB", kb), Config: c})
	}
	fig, err := scale.vsTDX("", cfgs)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, nc := range cfgs {
		rows = append(rows, AblationRow{nc.Label, "tree-64ary", fig.gmean(nc.Label)})
	}
	return rows, nil
}

// AblationCryptoLatency sweeps the AES/MAC engine latency, separating
// configurations that hide it (counter-mode hits) from those that pay it on
// every access (XTS).
func AblationCryptoLatency(scale Scale) ([]AblationRow, error) {
	var cfgs []namedConfig
	for _, cyc := range []int{20, 40, 80} {
		ctr := config.Table1(config.ModeSecDDRCTR)
		ctr.Security.CryptoLatency = cyc
		xts := config.Table1(config.ModeSecDDRXTS)
		xts.Security.CryptoLatency = cyc
		cfgs = append(cfgs,
			namedConfig{Label: fmt.Sprintf("ctr@%d", cyc), Config: ctr},
			namedConfig{Label: fmt.Sprintf("xts@%d", cyc), Config: xts},
		)
	}
	fig, err := scale.vsTDX("", cfgs)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, nc := range cfgs {
		rows = append(rows, AblationRow{nc.Label, "secddr", fig.gmean(nc.Label)})
	}
	return rows, nil
}

// AblationDDR5EWCRC compares SecDDR's eWCRC write-burst penalty on DDR4
// versus DDR5 (Section IV-B: DDR5 stretches 16->18 beats instead of 8->10,
// so the relative cost is halved). Values are SecDDR+XTS IPC normalized to
// encrypt-only XTS *within the same memory technology*.
func AblationDDR5EWCRC(scale Scale) ([]AblationRow, error) {
	techs := []struct {
		name string
		mk   func(config.Mode) config.Config
	}{
		{"DDR4-3200", config.Table1},
		{"DDR5-6400", config.Table1DDR5},
	}
	var rows []AblationRow
	for _, tech := range techs {
		fig, err := scale.normalizedFigure("", harness.Grid{},
			namedConfig{Label: "enc", Config: tech.mk(config.ModeEncryptOnlyXTS)},
			[]namedConfig{{Label: "sec", Config: tech.mk(config.ModeSecDDRXTS)}})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{tech.name, "secddr/encrypt-only", fig.gmean("sec")})
	}
	return rows, nil
}

// AblationChannelScaling sweeps the DDR4 channel count — the bandwidth
// lever the paper's single-channel evaluation leaves on the table. SecDDR's
// central claim is that in-DRAM replay protection costs a fixed, per-access
// amount while tree walks amplify every miss, so the gap should persist (or
// widen) as memory bandwidth scales. Each row is gmean IPC normalized to
// the TDX-like encrypt-only baseline *at the same channel count*, isolating
// the protection overhead from the raw bandwidth win.
func AblationChannelScaling(scale Scale) ([]AblationRow, error) {
	withChannels := func(mode config.Mode, nch int) config.Config {
		c := config.Table1(mode)
		c.DRAM.Channels = nch
		c.Normalize()
		return c
	}
	var rows []AblationRow
	for _, nch := range []int{1, 2, 4} {
		fig, err := scale.normalizedFigure("", harness.Grid{},
			namedConfig{Label: "base", Config: withChannels(config.ModeEncryptOnlyCTR, nch)},
			[]namedConfig{
				{Label: "tree-64ary", Config: withChannels(config.ModeIntegrityTree, nch)},
				{Label: "secddr+ctr", Config: withChannels(config.ModeSecDDRCTR, nch)},
			})
		if err != nil {
			return nil, err
		}
		param := fmt.Sprintf("%dch", nch)
		for _, s := range fig.Series {
			rows = append(rows, AblationRow{param, s.Label, fig.gmean(s.Label)})
		}
	}
	return rows, nil
}
