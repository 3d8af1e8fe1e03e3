package harness

import (
	"bytes"
	"encoding/csv"
	"path/filepath"
	"reflect"
	"testing"

	"secddr/internal/config"
	"secddr/internal/resultstore"
	"secddr/internal/sim"
	"secddr/internal/trace"
)

// tinyGrid is a cheap 2-workload x 2-config campaign for harness tests.
func tinyGrid() Grid {
	mcf, _ := trace.ByName("mcf")
	lbm, _ := trace.ByName("lbm")
	return Grid{
		Workloads: []trace.Profile{mcf, lbm},
		Configs: []NamedConfig{
			{Label: "unprotected", Config: config.Table1(config.ModeUnprotected)},
			{Label: "secddr+xts", Config: config.Table1(config.ModeSecDDRXTS)},
		},
		InstrPerCore: 5_000,
		WarmupInstr:  1_000,
		Seed:         42,
	}
}

func TestGridExpansion(t *testing.T) {
	g := tinyGrid()
	jobs := g.Jobs()
	if len(jobs) != 4 {
		t.Fatalf("jobs = %d, want 4", len(jobs))
	}
	wantKeys := []string{"mcf/unprotected", "mcf/secddr+xts", "lbm/unprotected", "lbm/secddr+xts"}
	for i, j := range jobs {
		if j.Key != wantKeys[i] {
			t.Errorf("job[%d].Key = %q, want %q", i, j.Key, wantKeys[i])
		}
		if j.Opt.Seed != g.Seed {
			t.Errorf("job[%d].Seed = %d, want shared seed %d", i, j.Opt.Seed, g.Seed)
		}
	}

	g.SeedPerJob = true
	perJob := g.Jobs()
	seeds := map[uint64]bool{}
	for i, j := range perJob {
		seeds[j.Opt.Seed] = true
		if again := g.Jobs()[i].Opt.Seed; again != j.Opt.Seed {
			t.Errorf("per-job seed not deterministic: %d vs %d", j.Opt.Seed, again)
		}
	}
	if len(seeds) != len(perJob) {
		t.Errorf("per-job seeds not distinct: %d unique of %d", len(seeds), len(perJob))
	}
}

func TestDeriveSeedStable(t *testing.T) {
	if DeriveSeed(42, "mcf/secddr+xts") != DeriveSeed(42, "mcf/secddr+xts") {
		t.Error("DeriveSeed not deterministic")
	}
	if DeriveSeed(42, "a") == DeriveSeed(42, "b") {
		t.Error("DeriveSeed ignores the key")
	}
	if DeriveSeed(1, "a") == DeriveSeed(2, "a") {
		t.Error("DeriveSeed ignores the base seed")
	}
}

// TestCacheHitSkip re-runs an identical campaign against the same
// store: every point must be served from cache, byte-identically.
func TestCacheHitSkip(t *testing.T) {
	st, err := resultstore.Open(filepath.Join(t.TempDir(), "store"), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c := Campaign{Jobs: tinyGrid().Jobs(), Store: st}

	first, stats, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 4 || stats.Cached != 0 {
		t.Fatalf("first run stats = %+v, want 4 executed", stats)
	}

	second, stats, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 0 || stats.Cached != 4 {
		t.Fatalf("second run stats = %+v, want 4 cached / 0 executed", stats)
	}
	for i := range first {
		if !second[i].Cached {
			t.Errorf("outcome %q not marked cached", second[i].Key)
		}
		if !reflect.DeepEqual(first[i].Result, second[i].Result) {
			t.Errorf("outcome %q differs between live and cached run", first[i].Key)
		}
	}
}

// TestDeterministicJSON runs the same campaign twice from scratch and
// requires byte-identical JSON output.
func TestDeterministicJSON(t *testing.T) {
	render := func() []byte {
		outs, stats, err := Run(Campaign{Jobs: tinyGrid().Jobs()})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := WriteJSON(&b, outs, stats); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Error("same seed did not produce byte-identical JSON")
	}
}

// TestBatchDedupe submits the same simulation point under two keys: one
// execution must serve both.
func TestBatchDedupe(t *testing.T) {
	jobs := tinyGrid().Jobs()[:1]
	dup := jobs[0]
	dup.Key = "alias/" + dup.Key
	jobs = append(jobs, dup)

	outs, stats, err := Run(Campaign{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 1 || stats.Deduped != 1 {
		t.Fatalf("stats = %+v, want 1 executed / 1 deduped", stats)
	}
	if !reflect.DeepEqual(outs[0].Result, outs[1].Result) {
		t.Error("deduped jobs returned different results")
	}
}

func TestWriteCSV(t *testing.T) {
	outs, _, err := Run(Campaign{Jobs: tinyGrid().Jobs()[:2]})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := WriteCSV(&b, outs); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&b).ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV does not parse: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want header + 2", len(rows))
	}
	if rows[0][0] != "key" || rows[1][0] != "mcf/unprotected" {
		t.Errorf("unexpected CSV layout: %v", rows[:2])
	}
}

// TestSimulationErrorPropagates feeds the harness an invalid job.
func TestSimulationErrorPropagates(t *testing.T) {
	jobs := tinyGrid().Jobs()[:1]
	jobs[0].Opt.InstrPerCore = 0 // sim.Run rejects this
	if _, _, err := Run(Campaign{Jobs: jobs}); err == nil {
		t.Error("invalid job did not fail the campaign")
	}
}

// TestDigestSensitivity: the cache key must change when anything
// result-relevant changes, and must not change for equivalent defaults.
func TestDigestSensitivity(t *testing.T) {
	base := tinyGrid().Jobs()[0].Opt
	if base.Digest() != base.Digest() {
		t.Error("digest not stable")
	}
	explicit := base
	explicit.MSHRsPerCore = 16 // the default Run applies
	if base.Digest() != explicit.Digest() {
		t.Error("digest distinguishes equivalent default options")
	}
	for name, mutate := range map[string]func(*sim.Options){
		"seed":     func(o *sim.Options) { o.Seed++ },
		"instr":    func(o *sim.Options) { o.InstrPerCore++ },
		"workload": func(o *sim.Options) { o.Workload.MPKI++ },
		"config":   func(o *sim.Options) { o.Config.Security.CryptoLatency++ },
	} {
		o := base
		mutate(&o)
		if o.Digest() == base.Digest() {
			t.Errorf("digest ignores %s", name)
		}
	}
}
