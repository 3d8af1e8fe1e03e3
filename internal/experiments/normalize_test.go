package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"

	"secddr/internal/scenario"
	"secddr/internal/sim"
)

// ipc builds a result with the given IPC; a positive ci also makes it a
// sampled result whose IPC estimate has that 95% half-width.
func ipc(v, ci float64) sim.Result {
	r := sim.Result{IPC: v}
	if ci > 0 {
		r.Estimates = map[string]sim.Estimate{"ipc": {Mean: v, CI95: ci, Windows: 8}}
	}
	return r
}

// TestNormalizeRule pins the one normalization rule on hand-built results,
// with no simulation: same-workload baseline, non-positive baselines
// skipped, non-positive config IPCs shown but left out of the gmeans, and
// a CI only where both sides are sampled.
func TestNormalizeRule(t *testing.T) {
	scn := scenario.Builtins()[0].Name
	workloads := []string{"mcf", "lbm", "pr", "gcc", scn}
	results := map[string]sim.Result{
		"mcf/base": ipc(2, 0.2), "mcf/cfg": ipc(1, 0.1), // 0.5, CI on both sides
		"lbm/base": ipc(0, 0), "lbm/cfg": ipc(1, 0), // baseline not positive: skipped
		"pr/base": ipc(1, 0), "pr/cfg": ipc(0, 0), // config not positive: 0, no gmean
		"gcc/base": ipc(1, 0.1), "gcc/cfg": ipc(2, 0), // exact config: no CI
		scn + "/base": ipc(4, 0), scn + "/cfg": ipc(2, 0), // scenario as a workload
	}
	fig := normalize("t", workloads, results, "base", []string{"cfg"})
	if len(fig.Series) != 1 || fig.Series[0].Label != "cfg" {
		t.Fatalf("series = %+v, want one labelled cfg", fig.Series)
	}
	s := fig.Series[0]
	want := map[string]float64{"mcf": 0.5, "pr": 0, "gcc": 2, scn: 0.5}
	if len(s.Values) != len(want) {
		t.Errorf("values = %v, want %v", s.Values, want)
	}
	for w, v := range want {
		if got, ok := s.Values[w]; !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", w, got, ok, v)
		}
	}
	if _, ok := s.Values["lbm"]; ok {
		t.Error("lbm has a value despite a zero baseline IPC")
	}
	wantCI := 0.5 * math.Sqrt(0.1*0.1+0.1*0.1) // both sides 10% relative
	if len(s.CIs) != 1 || math.Abs(s.CIs["mcf"]-wantCI) > 1e-12 {
		t.Errorf("CIs = %v, want only mcf ±%v", s.CIs, wantCI)
	}

	// pr's 0 and lbm's missing value are left out of both gmean rows.
	memInt, all := fig.GeoMeans("cfg")
	if wantAll := math.Cbrt(0.5 * 2 * 0.5); math.Abs(all-wantAll) > 1e-12 {
		t.Errorf("gmean-all = %v, want %v", all, wantAll)
	}
	if fig.gmean("cfg") != all {
		t.Errorf("gmean = %v, want gmean-all %v", fig.gmean("cfg"), all)
	}
	if math.Abs(memInt-0.5) > 1e-12 { // mcf is the only memory-intensive positive value
		t.Errorf("gmean-memint = %v, want 0.5", memInt)
	}

	out := fig.Format()
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "pr":
			if !strings.HasSuffix(line, " 0.000") {
				t.Errorf("pr row %q, want 0.000", line)
			}
		case "mcf":
			if !strings.Contains(line, "0.500 ±0.071") {
				t.Errorf("mcf row %q, want 0.500 ±0.071", line)
			}
		case scn:
			if !strings.HasSuffix(line, " 0.500") {
				t.Errorf("%s row %q, want 0.500", scn, line)
			}
		}
	}
}

// TestProfilesFootprintOverride: the footprint override applies to the
// full profile list too, not only to a named subset.
func TestProfilesFootprintOverride(t *testing.T) {
	s := Scale{footprintOverride: 96 << 20}
	ps, err := s.profiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 29 {
		t.Fatalf("profiles = %d, want all 29", len(ps))
	}
	for _, p := range ps {
		if p.Footprint != 96<<20 || p.HotBytes > p.Footprint {
			t.Errorf("%s: footprint %d hot %d, want footprint %d", p.Name, p.Footprint, p.HotBytes, 96<<20)
		}
	}
}

// recordStore is a harness.Store that keeps every recorded result.
type recordStore struct {
	mu sync.Mutex
	m  map[string]sim.Result
}

func (s *recordStore) Lookup(string) (sim.Result, bool) { return sim.Result{}, false }

func (s *recordStore) Record(d string, res sim.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[d] = res
	return nil
}

// TestAblationScenarioMixHonoursFidelity: the scenario mix runs at the
// scale's fidelity like every other ablation, so a sampled scale records
// sampled results only.
func TestAblationScenarioMixHonoursFidelity(t *testing.T) {
	s := QuickScale()
	s.InstrPerCore = 12_000
	s.WarmupInstr = 4_000
	s.Fidelity = sim.Fidelity{Mode: sim.FidelitySampled, WindowInstr: 1000, PeriodInstr: 4000, WarmrunInstr: 500}
	store := &recordStore{m: map[string]sim.Result{}}
	s.Store = store
	if _, err := AblationScenarioMix(s); err != nil {
		t.Fatal(err)
	}
	if len(store.m) == 0 {
		t.Fatal("no results recorded")
	}
	for d, res := range store.m {
		if len(res.Estimates) == 0 {
			t.Errorf("%s (%s): recorded without sampled estimates", d[:16], res.Workload)
		}
	}
}
