package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"secddr/internal/trace"
)

// Every built-in must validate against the Table I core count, carry a
// description, and render a distinct, stable canonical string.
func TestBuiltinsValidateAndRenderDistinctly(t *testing.T) {
	seen := map[string]string{}
	for _, s := range Builtins() {
		if err := s.Validate(4); err != nil {
			t.Errorf("builtin %q invalid: %v", s.Name, err)
		}
		if s.Description == "" {
			t.Errorf("builtin %q has no description", s.Name)
		}
		str := s.String()
		if prev, dup := seen[str]; dup {
			t.Errorf("builtins %q and %q render identically: %s", prev, s.Name, str)
		}
		seen[str] = s.Name
		if got := s.String(); got != str {
			t.Errorf("builtin %q String unstable: %q vs %q", s.Name, str, got)
		}
		if _, ok := ByName(s.Name); !ok {
			t.Errorf("ByName misses builtin %q", s.Name)
		}
	}
	if len(Builtins()) < 8 {
		t.Errorf("built-in library has %d scenarios, want >= 8", len(Builtins()))
	}
}

// The description is commentary: it must not leak into the canonical
// string (and therefore not into sim digests).
func TestDescriptionExcludedFromString(t *testing.T) {
	a, _ := ByName("thrash-one")
	b := a
	b.Description = "totally different commentary"
	if a.String() != b.String() {
		t.Fatalf("description changed the canonical string:\n%s\n%s", a.String(), b.String())
	}
}

// A scenario JSON round trip preserves the canonical string bit for bit —
// the property the sweep service's wire protocol relies on.
func TestWireRoundTripPreservesString(t *testing.T) {
	for _, s := range Builtins() {
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%s: marshal: %v", s.Name, err)
		}
		var back Scenario
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", s.Name, err)
		}
		if back.String() != s.String() {
			t.Errorf("%s: round trip changed canonical string:\n  %s\n  %s", s.Name, s.String(), back.String())
		}
	}
}

func TestValidateRejections(t *testing.T) {
	ph := func(p string, n uint64) Phase { return Phase{Profile: p, Instr: n} }
	cases := []struct {
		name string
		scn  Scenario
		want string
	}{
		{"no name", Scenario{Cores: []CoreScript{stationary("mcf")}}, "no name"},
		{"slash in name", Scenario{Name: "a/b", Cores: []CoreScript{stationary("mcf")}}, "must not contain"},
		{"no cores", Scenario{Name: "x"}, "no core scripts"},
		{"too many cores", Scenario{Name: "x", Cores: []CoreScript{
			stationary("mcf"), stationary("mcf"), stationary("mcf"),
			stationary("mcf"), stationary("mcf")}}, "only 4 cores"},
		{"unknown profile", Scenario{Name: "x", Cores: []CoreScript{stationary("nope")}}, "unknown profile"},
		{"unbounded middle phase", Scenario{Name: "x", Cores: []CoreScript{
			{Phases: []Phase{ph("mcf", 0), ph("gcc", 100)}}}}, "instr must be > 0"},
		{"unbounded loop phase", Scenario{Name: "x", Cores: []CoreScript{
			{Phases: []Phase{ph("mcf", 100), ph("gcc", 0)}, Loop: true}}}, "instr must be > 0"},
		{"loop plus markov", Scenario{Name: "x", Cores: []CoreScript{
			{Phases: []Phase{ph("mcf", 0)}, Loop: true,
				Markov: Markov{Interval: 10, Transition: [][]float64{{1}}}}}}, "mutually exclusive"},
		{"markov wrong shape", Scenario{Name: "x", Cores: []CoreScript{
			{Phases: []Phase{ph("mcf", 0), ph("gcc", 0)},
				Markov: Markov{Interval: 10, Transition: [][]float64{{1}}}}}}, "rows"},
		{"markov bad row sum", Scenario{Name: "x", Cores: []CoreScript{
			{Phases: []Phase{ph("mcf", 0), ph("gcc", 0)},
				Markov: Markov{Interval: 10, Transition: [][]float64{{0.5, 0.2}, {0.5, 0.5}}}}}}, "sums to"},
	}
	for _, tc := range cases {
		err := tc.scn.Validate(4)
		if err == nil {
			t.Errorf("%s: validated unexpectedly", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// The empty scenario is valid (it means "no scenario").
	if err := (Scenario{}).Validate(4); err != nil {
		t.Errorf("zero scenario should validate: %v", err)
	}
}

// drain pulls ops until n instructions have been emitted, returning the
// phase index active after each op.
func drain(t *testing.T, src *Source, n uint64) []int {
	t.Helper()
	var phases []int
	var total uint64
	for total < n {
		op, ok := src.Next()
		if !ok {
			t.Fatal("scenario stream ended")
		}
		total += uint64(op.Gap) + 1
		phases = append(phases, src.Phase())
	}
	return phases
}

func TestSourceInstrBoundaries(t *testing.T) {
	scn := Scenario{Name: "t", Cores: []CoreScript{{
		Phases: []Phase{
			{Profile: "mcf", Instr: 5_000},
			{Profile: "lbm", Instr: 5_000},
			{Profile: "gcc"}, // terminal
		},
	}}}
	src, err := NewSource(scn, 0, 0, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	phases := drain(t, src, 40_000)
	if first, last := phases[0], phases[len(phases)-1]; first != 0 || last != 2 {
		t.Fatalf("phase trajectory wrong: first=%d last=%d", first, last)
	}
	// Monotone non-decreasing through 0 -> 1 -> 2, hitting every phase.
	seen := map[int]bool{}
	prev := 0
	for _, p := range phases {
		if p < prev {
			t.Fatalf("non-looping schedule went backwards: %d -> %d", prev, p)
		}
		prev = p
		seen[p] = true
	}
	if !seen[0] || !seen[1] || !seen[2] {
		t.Fatalf("not all phases visited: %v", seen)
	}
}

func TestSourceLoopRevisits(t *testing.T) {
	scn := Scenario{Name: "t", Cores: []CoreScript{alternating(3_000, "mcf", "gcc")}}
	src, err := NewSource(scn, 0, 0, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	phases := drain(t, src, 30_000)
	transitions := 0
	for i := 1; i < len(phases); i++ {
		if phases[i] != phases[i-1] {
			transitions++
		}
	}
	if transitions < 4 {
		t.Fatalf("looping schedule only transitioned %d times over 30k instructions", transitions)
	}
}

// A degenerate Markov matrix (each phase jumps to the next with certainty)
// must cycle deterministically.
func TestSourceMarkovDeterministicCycle(t *testing.T) {
	scn := Scenario{Name: "t", Cores: []CoreScript{{
		Phases: []Phase{{Profile: "mcf"}, {Profile: "gcc"}, {Profile: "lbm"}},
		Markov: Markov{
			Interval:   2_000,
			Transition: [][]float64{{0, 1, 0}, {0, 0, 1}, {1, 0, 0}},
		},
	}}}
	src, err := NewSource(scn, 0, 0, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	phases := drain(t, src, 30_000)
	for i := 1; i < len(phases); i++ {
		if phases[i] != phases[i-1] {
			want := (phases[i-1] + 1) % 3
			if phases[i] != want {
				t.Fatalf("certainty chain jumped %d -> %d, want -> %d", phases[i-1], phases[i], want)
			}
		}
	}
	if phases[len(phases)-1] == phases[0] && len(phases) > 1 {
		// fine — cycles may land anywhere; just require it moved at all
		moved := false
		for _, p := range phases {
			if p != phases[0] {
				moved = true
				break
			}
		}
		if !moved {
			t.Fatal("markov chain never transitioned")
		}
	}
}

// Same seed, same stream; the scenario engine must be bit-deterministic.
func TestSourceDeterminism(t *testing.T) {
	scn, _ := ByName("markov-server")
	a, err := NewSource(scn, 0, 0, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSource(scn, 0, 0, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50_000; i++ {
		opA, okA := a.Next()
		opB, okB := b.Next()
		if okA != okB || opA != opB {
			t.Fatalf("streams diverge at op %d: %+v vs %+v", i, opA, opB)
		}
	}
	if a.Phase() != b.Phase() {
		t.Fatalf("phase diverged: %d vs %d", a.Phase(), b.Phase())
	}
}

// TestSourceSharesTables: a source built through a table set takes its
// phase generators' page tables from it, one shuffle per phase, and a
// second source of the same core and seed shuffles none; both stream
// exactly what a source with tables of its own streams.
func TestSourceSharesTables(t *testing.T) {
	scn, _ := ByName("markov-server")
	phases := len(scn.Script(0).Phases)
	set := new(trace.Tables)
	var srcs []*Source
	for _, tables := range []*trace.Tables{nil, set, set} {
		src, err := NewSource(scn, 0, 0, 7, tables)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	if n := set.Builds(); n != phases {
		t.Errorf("two sources shuffled %d tables into the set, want one per phase (%d)", n, phases)
	}
	for i := range 50_000 {
		want, _ := srcs[0].Next()
		for k, src := range srcs[1:] {
			if op, _ := src.Next(); op != want {
				t.Fatalf("shared source %d diverges at op %d: %+v, private %+v", k, i, op, want)
			}
		}
	}
}

// Round-robin script assignment: core i runs Cores[i % len].
func TestScriptRoundRobin(t *testing.T) {
	scn, _ := ByName("stream-chase") // 2 scripts
	if got := scn.Script(0).Phases[0].Profile; got != "lbm" {
		t.Fatalf("core 0 profile = %s", got)
	}
	if got := scn.Script(3).Phases[0].Profile; got != "mcf" {
		t.Fatalf("core 3 profile = %s", got)
	}
}

func TestAttackerProfilesResolve(t *testing.T) {
	for _, p := range AttackerProfiles() {
		got, ok := ProfileByName(p.Name)
		if !ok {
			t.Errorf("attacker %q does not resolve", p.Name)
		}
		if got.Name != p.Name {
			t.Errorf("attacker lookup returned %q for %q", got.Name, p.Name)
		}
		if !got.MemIntensive() {
			t.Errorf("attacker %q should be memory-intensive (MPKI=%v)", p.Name, got.MPKI)
		}
	}
	if _, ok := ProfileByName("mcf"); !ok {
		t.Error("benchmark profiles must resolve through ProfileByName")
	}
}

// manifestSpellings is one scenario "solo" in each accepted manifest
// spelling: a bare object, a bare array, and the wrapper.
func manifestSpellings() []string {
	object := `{"name":"solo","cores":[{"phases":[{"profile":"mcf"}]}]}`
	array := `[` + object + `]`
	wrapped := `{"scenarios":` + array + `}`
	return []string{object, array, wrapped}
}

// manifestRejections are manifests ParseManifest must refuse, by reason.
var manifestRejections = map[string]string{
	"unknown field":  `{"name":"x","coresz":[]}`,
	"bad profile":    `{"name":"x","cores":[{"phases":[{"profile":"nope"}]}]}`,
	"empty manifest": `{"scenarios":[]}`,
	"duplicate name": `[{"name":"x","cores":[{"phases":[{"profile":"mcf"}]}]},{"name":"x","cores":[{"phases":[{"profile":"gcc"}]}]}]`,
	"trailing data":  `{"scenarios":[{"name":"x","cores":[{"phases":[{"profile":"mcf"}]}]}]} extra`,
}

func TestParseManifestSpellings(t *testing.T) {
	for _, src := range manifestSpellings() {
		scns, err := ParseManifest([]byte(src))
		if err != nil {
			t.Fatalf("parse %s: %v", src, err)
		}
		if len(scns) != 1 || scns[0].Name != "solo" {
			t.Fatalf("parse %s: got %+v", src, scns)
		}
	}
}

func TestParseManifestRejections(t *testing.T) {
	for name, src := range manifestRejections {
		if _, err := ParseManifest([]byte(src)); err == nil {
			t.Errorf("%s: parsed unexpectedly", name)
		}
	}
}

// The committed example manifests must stay parseable and valid for the
// Table I platform (the CI scenario smoke runs quick.json end-to-end).
func TestExampleManifestsValid(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example manifests found")
	}
	for _, path := range paths {
		scns, err := LoadManifest(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		for _, s := range scns {
			if err := s.Validate(4); err != nil {
				t.Errorf("%s: %v", path, err)
			}
			if s.Description == "" {
				t.Errorf("%s: scenario %q has no description", path, s.Name)
			}
		}
	}
}

// A scenario name that shadows a workload profile would collide in
// result keys; Validate must reject it.
func TestValidateRejectsProfileNameShadow(t *testing.T) {
	for _, name := range []string{"mcf", "attacker-flood"} {
		scn := Scenario{Name: name, Cores: []CoreScript{stationary("gcc")}}
		if err := scn.Validate(4); err == nil {
			t.Errorf("scenario named %q validated despite shadowing a profile", name)
		}
	}
}

// Phase.Instr is dead weight under a Markov schedule; allowing it would
// let semantically identical scenarios digest differently.
func TestValidateRejectsInstrUnderMarkov(t *testing.T) {
	scn := Scenario{Name: "x", Cores: []CoreScript{{
		Phases: []Phase{{Profile: "mcf", Instr: 5000}, {Profile: "gcc"}},
		Markov: Markov{Interval: 10, Transition: [][]float64{{0.5, 0.5}, {0.5, 0.5}}},
	}}}
	if err := scn.Validate(4); err == nil {
		t.Error("non-zero instr under markov validated")
	}
}

// Ordered boundaries must carry overshoot: with op gaps far larger than
// the phase budgets, the realized per-phase instruction split still has
// to track the declared schedule (here 1:2), not collapse to one op per
// phase.
func TestSourceOvershootPreservesSchedule(t *testing.T) {
	// perlbench: MPKI 0.4 -> mean op gap ~2500 instructions, dwarfing the
	// 1k/2k budgets below.
	scn := Scenario{Name: "t", Cores: []CoreScript{{
		Phases: []Phase{
			{Profile: "perlbench", Instr: 1_000},
			{Profile: "perlbench", Instr: 2_000},
		},
		Loop: true,
	}}}
	src, err := NewSource(scn, 0, 0, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	var inPhase [2]uint64
	var total uint64
	for total < 3_000_000 {
		op, ok := src.Next()
		if !ok {
			t.Fatal("stream ended")
		}
		n := uint64(op.Gap) + 1
		total += n
		inPhase[src.Phase()] += n
	}
	ratio := float64(inPhase[1]) / float64(inPhase[0])
	if ratio < 1.5 || ratio > 2.5 {
		t.Fatalf("phase instruction split %v (ratio %.2f), want ~1:2", inPhase, ratio)
	}
}

// The symmetric silent-ignore case: a transition matrix without an
// interval would never be scheduled.
func TestValidateRejectsTransitionWithoutInterval(t *testing.T) {
	scn := Scenario{Name: "x", Cores: []CoreScript{{
		Phases: []Phase{{Profile: "mcf", Instr: 5000}, {Profile: "gcc"}},
		Markov: Markov{Transition: [][]float64{{0.5, 0.5}, {0.5, 0.5}}},
	}}}
	if err := scn.Validate(4); err == nil {
		t.Error("transition matrix without interval validated")
	}
}

// Strict-mode errors must blame the user's actual typo: a bare scenario
// object with a misspelled field reports that field, not a complaint
// that valid scenario fields are unknown to the wrapper form.
func TestParseManifestErrorNamesTheTypo(t *testing.T) {
	_, err := ParseManifest([]byte(`{"name":"x","coresz":[{"phases":[{"profile":"mcf"}]}]}`))
	if err == nil {
		t.Fatal("typo'd manifest parsed")
	}
	if !strings.Contains(err.Error(), "coresz") {
		t.Fatalf("error blames the wrong field: %v", err)
	}
	// Wrapper form with a bad inner field blames that field too.
	_, err = ParseManifest([]byte(`{"scenarios":[{"name":"x","phasez":[]}]}`))
	if err == nil {
		t.Fatal("typo'd wrapper manifest parsed")
	}
	if !strings.Contains(err.Error(), "phasez") {
		t.Fatalf("wrapper error blames the wrong field: %v", err)
	}
}

// FuzzParseManifest: ParseManifest never panics, and a manifest it
// accepts, re-marshalled with encoding/json, parses again to scenarios
// with identical canonical strings, the form the digest is taken over.
func FuzzParseManifest(f *testing.F) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, src := range manifestSpellings() {
		f.Add([]byte(src))
	}
	for _, src := range manifestRejections {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		scns, err := ParseManifest(data)
		if err != nil {
			return
		}
		raw, err := json.Marshal(scns)
		if err != nil {
			t.Fatalf("accepted manifest does not marshal: %v", err)
		}
		back, err := ParseManifest(raw)
		if err != nil {
			t.Fatalf("re-marshalled manifest rejected: %v\n%s", err, raw)
		}
		if len(back) != len(scns) {
			t.Fatalf("re-marshalled manifest has %d scenarios, want %d", len(back), len(scns))
		}
		for i := range scns {
			if got, want := back[i].String(), scns[i].String(); got != want {
				t.Errorf("scenario %d: round trip changed canonical string:\n  %s\n  %s", i, want, got)
			}
		}
	})
}
