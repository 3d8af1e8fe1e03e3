package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"secddr/internal/config"
	"secddr/internal/scenario"
	"secddr/internal/trace"
)

// ---------------------------------------------------------------------------
// Deep-copy completeness: a reflection walker that compares the parent and
// fork state graphs in lockstep. It fails on two classes of defect:
//
//   - aliasing: any pointer, slice backing array, or map shared between the
//     two graphs (a write through the fork would corrupt the parent);
//   - value divergence: any scalar that differs (the copy missed data).
//
// Because it walks whatever the state graph actually contains, a field
// added to system/cpu/cache/memctrl/dram/secmem state without deep-copy
// coverage fails these tests with the offending field path — the seam
// cannot silently rot as the simulator grows. The walker never calls
// Interface() (forbidden on unexported fields); it reads scalars through
// the kind-typed accessors, which reflect permits on read-only values.
// ---------------------------------------------------------------------------

// sharedTableType is the one type the walker and the mutator treat as
// shared on purpose: trace.PageTable, the immutable page permutation that
// generator clones read in common (see its doc comment and the
// //lint:cloned-via annotation on trace.Generator.pagePerm). The
// exemption is by type identity, so any other shared storage — a plain
// []uint32 included — is still reported.
var sharedTableType = reflect.TypeFor[trace.PageTable]()

type walkIssue struct {
	path string
	msg  string
}

type aliasWalker struct {
	// visited holds pointer pairs already compared, keyed by (parent, fork)
	// address. Pre-registering the two roots makes back-pointers (each
	// core's memory port points at its own system) terminate instead of
	// recursing forever — and a back-pointer into the WRONG root shows up
	// as aliasing, not as a visited pair.
	visited map[[2]uintptr]bool
	issues  []walkIssue
}

func (w *aliasWalker) report(path, format string, args ...any) {
	w.issues = append(w.issues, walkIssue{path: path, msg: fmt.Sprintf(format, args...)})
}

func (w *aliasWalker) walk(path string, a, b reflect.Value) {
	if a.Kind() != b.Kind() {
		w.report(path, "kind mismatch %s vs %s", a.Kind(), b.Kind())
		return
	}
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() != b.IsNil() {
			w.report(path, "nil-ness differs (parent nil=%v fork nil=%v)", a.IsNil(), b.IsNil())
			return
		}
		if a.IsNil() {
			return
		}
		pa, pb := a.Pointer(), b.Pointer()
		if pa == pb && a.Type().Elem() == sharedTableType {
			return
		}
		if pa == pb {
			w.report(path, "pointer aliased between parent and fork (%#x)", pa)
			return
		}
		key := [2]uintptr{pa, pb}
		if w.visited[key] {
			return
		}
		w.visited[key] = true
		w.walk(path, a.Elem(), b.Elem())
	case reflect.Struct:
		t := a.Type()
		for i := 0; i < a.NumField(); i++ {
			w.walk(path+"."+t.Field(i).Name, a.Field(i), b.Field(i))
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			w.report(path, "length differs (%d vs %d)", a.Len(), b.Len())
			return
		}
		if a.Len() > 0 && a.Pointer() == b.Pointer() {
			w.report(path, "slice backing array aliased between parent and fork (%#x)", a.Pointer())
			return
		}
		for i := 0; i < a.Len(); i++ {
			w.walk(path+"["+strconv.Itoa(i)+"]", a.Index(i), b.Index(i))
		}
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			w.walk(path+"["+strconv.Itoa(i)+"]", a.Index(i), b.Index(i))
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			w.report(path, "map length differs (%d vs %d)", a.Len(), b.Len())
			return
		}
		pa, pb := a.Pointer(), b.Pointer()
		if pa != 0 && pa == pb {
			w.report(path, "map storage aliased between parent and fork (%#x)", pa)
			return
		}
		it := a.MapRange()
		for it.Next() {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				w.report(path, "fork is missing key %v", it.Key())
				continue
			}
			w.walk(fmt.Sprintf("%s[%v]", path, it.Key()), it.Value(), bv)
		}
	case reflect.Interface:
		if a.IsNil() != b.IsNil() {
			w.report(path, "interface nil-ness differs")
			return
		}
		if a.IsNil() {
			return
		}
		if a.Elem().Type() != b.Elem().Type() {
			w.report(path, "dynamic type differs (%s vs %s)", a.Elem().Type(), b.Elem().Type())
			return
		}
		w.walk(path, a.Elem(), b.Elem())
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			w.report(path, "value differs (%v vs %v)", a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			w.report(path, "value differs (%d vs %d)", a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			w.report(path, "value differs (%d vs %d)", a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			w.report(path, "value differs (%g vs %g)", a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			w.report(path, "value differs (%q vs %q)", a.String(), b.String())
		}
	case reflect.Func:
		// Funcs in the state graph are per-run instrumentation hooks (the
		// scenario phase hook). A hook may close over its own system, so
		// the invariant is not equality but non-inheritance: a fork must
		// start with the hook cleared and register its own at resume.
		if !b.IsNil() {
			w.report(path, "fork inherited an instrumentation hook (clones must drop funcs)")
		}
	default:
		// Func, Chan, UnsafePointer, Complex: the simulator state graph has
		// none; if one appears the copier (and this walker) must learn it.
		w.report(path, "unhandled kind %s in state graph", a.Kind())
	}
}

// compareGraphs walks two root pointers in lockstep and returns every
// aliasing or value issue found.
func compareGraphs[T any](rootName string, parent, fork *T) []walkIssue {
	w := &aliasWalker{visited: map[[2]uintptr]bool{}}
	pa, pb := reflect.ValueOf(parent), reflect.ValueOf(fork)
	w.visited[[2]uintptr{pa.Pointer(), pb.Pointer()}] = true
	w.walk(rootName, pa.Elem(), pb.Elem())
	return w.issues
}

func reportIssues(t *testing.T, issues []walkIssue) {
	t.Helper()
	for _, is := range issues {
		t.Errorf("%s: %s", is.path, is.msg)
	}
}

func warmedSystem(t *testing.T, opt Options) *system {
	t.Helper()
	s, err := warmSystem(opt, false)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustFork(t *testing.T, s *system) *system {
	t.Helper()
	f, err := s.fork()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func tinyOpt(mode config.Mode, wl string) Options {
	p, ok := trace.ByName(wl)
	if !ok {
		panic("unknown workload " + wl)
	}
	return Options{
		Config:       config.Table1(mode),
		Workload:     p,
		InstrPerCore: 5_000,
		WarmupInstr:  5_000,
		Seed:         42,
	}
}

// TestForkSharesNoState walks the full state graphs of a warmed system and
// its fork and fails on any shared storage or missed value, with the
// offending field path.
func TestForkSharesNoState(t *testing.T) {
	s := warmedSystem(t, tinyOpt(config.ModeSecDDRCTR, "mcf"))
	reportIssues(t, compareGraphs("system", s, mustFork(t, s)))
}

// TestForkSharesNoStateScenario repeats the walk with a Markov scenario
// source, whose state graph (per-phase generators, transition matrix,
// phase RNG) is deeper than a stationary profile's.
func TestForkSharesNoStateScenario(t *testing.T) {
	sc, ok := scenario.ByName("markov-server")
	if !ok {
		t.Fatal("unknown scenario markov-server")
	}
	opt := Options{
		Config:       config.Table1(config.ModeSecDDRCTR),
		Scenario:     sc,
		InstrPerCore: 5_000,
		WarmupInstr:  5_000,
		Seed:         42,
	}
	s := warmedSystem(t, opt)
	reportIssues(t, compareGraphs("system", s, mustFork(t, s)))
}

// TestForkSharesNoStateMidRun forks a system in the middle of the measured
// region — MSHRs occupied, security-engine transactions in flight — and
// walks the graphs. This is what exercises the transaction memo and waiter
// copies: at the drained warmup fixpoint those structures are empty.
func TestForkSharesNoStateMidRun(t *testing.T) {
	forked := false
	debugHook = func(s *system) {
		if forked || len(s.byToken) < 4 {
			return
		}
		forked = true
		reportIssues(t, compareGraphs("system", s, mustFork(t, s)))
	}
	defer func() { debugHook = nil }()
	if _, err := Run(tinyOpt(config.ModeIntegrityTree, "mcf")); err != nil {
		t.Fatal(err)
	}
	if !forked {
		t.Fatal("no cycle with several in-flight fills; pick a heavier point")
	}
}

// ---------------------------------------------------------------------------
// Mutation isolation: flatten every scalar leaf of the parent graph, then
// mutate every reachable addressable scalar in the fork, then flatten the
// parent again. Any changed parent leaf means the fork shares storage with
// it — reported by path. This is the write-side proof of what the alias
// walker shows read-side.
// ---------------------------------------------------------------------------

type leafFlattener struct {
	visited map[uintptr]bool
	out     map[string]string
}

func (f *leafFlattener) flatten(path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		if p := v.Pointer(); f.visited[p] {
			return
		} else {
			f.visited[p] = true
		}
		f.flatten(path, v.Elem())
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			f.flatten(path+"."+t.Field(i).Name, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			f.flatten(path+"["+strconv.Itoa(i)+"]", v.Index(i))
		}
	case reflect.Map:
		it := v.MapRange()
		for it.Next() {
			f.flatten(fmt.Sprintf("%s[%v]", path, it.Key()), it.Value())
		}
	case reflect.Interface:
		if !v.IsNil() {
			f.flatten(path, v.Elem())
		}
	case reflect.Bool:
		f.out[path] = strconv.FormatBool(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.out[path] = strconv.FormatInt(v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		f.out[path] = strconv.FormatUint(v.Uint(), 10)
	case reflect.Float32, reflect.Float64:
		f.out[path] = strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case reflect.String:
		f.out[path] = v.String()
	}
}

func flattenLeaves[T any](rootName string, root *T) map[string]string {
	f := &leafFlattener{visited: map[uintptr]bool{}, out: map[string]string{}}
	f.visited[reflect.ValueOf(root).Pointer()] = true
	f.flatten(rootName, reflect.ValueOf(root).Elem())
	return f.out
}

type graphMutator struct {
	visited map[uintptr]bool
	mutated int
}

// mutate bumps every addressable scalar reachable from v. Unexported
// fields are written through reflect.NewAt on their address, which strips
// the read-only flag without changing the memory layout.
func (m *graphMutator) mutate(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || v.Type().Elem() == sharedTableType {
			// The shared page table is immutable by contract; writing it
			// would be the bug, not a test of the fork.
			return
		}
		if p := v.Pointer(); m.visited[p] {
			return
		} else {
			m.visited[p] = true
		}
		m.mutate(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			m.mutate(v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			m.mutate(v.Index(i))
		}
	case reflect.Map:
		// Map entry storage is not addressable; pointer-typed parts of the
		// values still are (through the pointer), which is the only way map
		// entries could share mutable state anyway.
		it := v.MapRange()
		for it.Next() {
			m.mutate(it.Value())
		}
	case reflect.Interface:
		if !v.IsNil() {
			m.mutate(v.Elem())
		}
	default:
		if !v.CanAddr() {
			return
		}
		w := reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
		switch v.Kind() {
		case reflect.Bool:
			w.SetBool(!v.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			w.SetInt(v.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			w.SetUint(v.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			w.SetFloat(v.Float() + 1)
		case reflect.String:
			w.SetString(v.String() + "~")
		default:
			return
		}
		m.mutated++
	}
}

// TestForkMutationDoesNotTouchParent mutates every reachable scalar in the
// fork and proves the parent's entire leaf set is bit-for-bit untouched.
func TestForkMutationDoesNotTouchParent(t *testing.T) {
	s := warmedSystem(t, tinyOpt(config.ModeSecDDRCTR, "mcf"))
	before := flattenLeaves("system", s)
	f := mustFork(t, s)

	m := &graphMutator{visited: map[uintptr]bool{}}
	m.visited[reflect.ValueOf(f).Pointer()] = true
	m.mutate(reflect.ValueOf(f).Elem())
	if m.mutated < 1000 {
		t.Fatalf("mutated only %d scalars; the walk is not reaching the state graph", m.mutated)
	}

	after := flattenLeaves("system", s)
	if len(before) != len(after) {
		t.Errorf("parent leaf count changed: %d -> %d", len(before), len(after))
	}
	changed := 0
	for path, was := range before {
		if now, ok := after[path]; !ok || now != was {
			changed++
			if changed <= 10 {
				t.Errorf("parent leaf mutated through fork: %s (%q -> %q)", path, was, now)
			}
		}
	}
	if changed > 10 {
		t.Errorf("... and %d more mutated parent leaves", changed-10)
	}
}

// TestWalkerCatchesPlantedSharing is the canary for the completeness
// machinery itself: a struct copied shallowly — exactly the bug the walker
// exists to catch — must be reported, pointer and slice and map, each with
// its field path. If this test fails, the walker has rotted and the other
// snapshot tests prove nothing.
//
// This runtime walker is the second line of defense: it only sees fields
// on state graphs a test actually builds. The first line is static — the
// clonecheck analyzer (internal/lint/clonecheck, run by secddr-lint in
// the CI lint job) fails the build the moment a reference-bearing field
// is added to system or any Clone-bearing type without the fork/Clone
// body touching it. Its testdata fixture `forksys` plants this very bug
// in a miniature of system.fork to prove the lint-time catch.
func TestWalkerCatchesPlantedSharing(t *testing.T) {
	type inner struct{ n int }
	type canary struct {
		a int
		p *inner
		s []int
		m map[int]int
	}
	parent := &canary{a: 1, p: &inner{n: 7}, s: []int{1, 2, 3}, m: map[int]int{4: 5}}
	fork := &canary{}
	*fork = *parent // planted bug: shallow copy

	issues := compareGraphs("canary", parent, fork)
	wantPaths := []string{"canary.p", "canary.s", "canary.m"}
	for _, want := range wantPaths {
		found := false
		for _, is := range issues {
			if is.path == want && strings.Contains(is.msg, "aliased") {
				found = true
			}
		}
		if !found {
			t.Errorf("walker missed planted shared field %s (issues: %v)", want, issues)
		}
	}
	// And the honest copy passes: deep-copy the canary, expect silence.
	fixed := &canary{a: parent.a, p: &inner{n: parent.p.n},
		s: append([]int(nil), parent.s...), m: map[int]int{4: 5}}
	if issues := compareGraphs("canary", parent, fixed); len(issues) != 0 {
		t.Errorf("walker reported issues on a correct deep copy: %v", issues)
	}
	// A missed value (not just missed storage) is also caught.
	fixed.p.n++
	found := false
	for _, is := range compareGraphs("canary", parent, fixed) {
		if is.path == "canary.p.n" {
			found = true
		}
	}
	if !found {
		t.Error("walker missed a scalar divergence behind a pointer")
	}
}

// TestWalkerCatchesSharedPlainTable: the page-table exemption is by type
// identity, not by shape or name. A generator and its clone share their
// trace.PageTable silently, but a shallow-copied plain []uint32 — the
// pre-sharing shape of the same table — and a look-alike type named
// PageTable are both still reported as aliased.
func TestWalkerCatchesSharedPlainTable(t *testing.T) {
	p, ok := trace.ByName("mcf")
	if !ok {
		t.Fatal("unknown workload mcf")
	}
	g, err := trace.NewGenerator(p, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if issues := compareGraphs("gen", g, g.Clone()); len(issues) != 0 {
		t.Errorf("walker reported a generator clone's shared page table: %v", issues)
	}

	type PageTable struct{ perm []uint32 }
	type canary struct {
		plain []uint32
		named *PageTable
	}
	parent := &canary{plain: []uint32{2, 0, 1}, named: &PageTable{perm: []uint32{1, 0}}}
	fork := &canary{}
	*fork = *parent // planted bug: shallow copy
	issues := compareGraphs("canary", parent, fork)
	for _, want := range []string{"canary.plain", "canary.named"} {
		found := false
		for _, is := range issues {
			if is.path == want && strings.Contains(is.msg, "aliased") {
				found = true
			}
		}
		if !found {
			t.Errorf("walker missed planted shared field %s (issues: %v)", want, issues)
		}
	}
}

// pageTables collects every trace.PageTable reachable from root, keyed
// by address, with a checksum (FNV-1a) of its permutation. The permutation
// is read through reflection, which may read unexported fields.
func pageTables(root any) map[uintptr]uint64 {
	out := make(map[uintptr]uint64)
	visited := make(map[uintptr]bool)
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || visited[v.Pointer()] {
				return
			}
			visited[v.Pointer()] = true
			if v.Type().Elem() == sharedTableType {
				perm := v.Elem().FieldByName("perm")
				h := uint64(14695981039346656037)
				for i := 0; i < perm.Len(); i++ {
					h = (h ^ perm.Index(i).Uint()) * 1099511628211
				}
				out[v.Pointer()] = h
				return
			}
			walk(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			it := v.MapRange()
			for it.Next() {
				walk(it.Value())
			}
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		}
	}
	walk(reflect.ValueOf(root))
	return out
}

// TestSharedPageTableUnchangedByForkedRun: a fork reads its snapshot's
// page tables in place, so complete forked runs must leave every table's
// contents exactly as the warmup built them.
func TestSharedPageTableUnchangedByForkedRun(t *testing.T) {
	opt := tinyOpt(config.ModeSecDDRCTR, "mcf")
	w, err := Warmup(opt)
	if err != nil {
		t.Fatal(err)
	}
	before := pageTables(w.sys)
	if len(before) != opt.Config.Core.NumCores {
		t.Fatalf("snapshot holds %d page tables, want one per core (%d)", len(before), opt.Config.Core.NumCores)
	}
	forked := pageTables(mustFork(t, w.sys))
	if len(forked) != len(before) {
		t.Errorf("fork holds %d page tables, snapshot %d", len(forked), len(before))
	}
	for addr := range forked {
		if _, ok := before[addr]; !ok {
			t.Errorf("fork holds page table %#x that its snapshot does not share", addr)
		}
	}
	for _, mode := range []config.Mode{config.ModeSecDDRCTR, config.ModeIntegrityTree} {
		if _, err := w.Fork(tinyOpt(mode, "mcf")); err != nil {
			t.Fatal(err)
		}
	}
	after := pageTables(w.sys)
	for addr, sum := range before {
		if after[addr] != sum {
			t.Errorf("page table %#x checksum %#x -> %#x after forked runs", addr, sum, after[addr])
		}
	}
}

// ---------------------------------------------------------------------------
// Fork-vs-cold identity: the contract Warmed.Fork sells to the harness is
// that a forked run's Result is byte-identical (as JSON, which is what the
// resultstore persists) to a cold Run of the same point. The matrix spans
// modes x workloads x scenarios x core counts x channel counts, mirroring
// the event-driven-vs-tick-loop identity suite.
// ---------------------------------------------------------------------------

func requireForkIdentity(t *testing.T, opt Options) {
	t.Helper()
	cold, err := Run(opt)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	w, err := Warmup(opt)
	if err != nil {
		t.Fatalf("warmup: %v", err)
	}
	forked, err := w.Fork(opt)
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	jc, err := json.Marshal(cold)
	if err != nil {
		t.Fatal(err)
	}
	jf, err := json.Marshal(forked)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jc, jf) {
		t.Errorf("forked Result diverges from cold run:\ncold: %s\nfork: %s", jc, jf)
	}
}

func TestForkIdentityMatrix(t *testing.T) {
	modes := []config.Mode{
		config.ModeUnprotected,
		config.ModeEncryptOnlyCTR,
		config.ModeSecDDRCTR,
		config.ModeSecDDRXTS,
		config.ModeIntegrityTree,
		config.ModeInvisiMem,
	}
	for _, mode := range modes {
		for _, name := range []string{"mcf", "lbm"} {
			mode, name := mode, name
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				p, ok := trace.ByName(name)
				if !ok {
					t.Fatalf("unknown workload %s", name)
				}
				requireForkIdentity(t, Options{
					Config:       config.Table1(mode),
					Workload:     p,
					InstrPerCore: 30_000,
					WarmupInstr:  10_000,
					Seed:         42,
				})
			})
		}
	}
}

// TestForkIdentitySharedWarmup is the harness's actual usage: ONE warmed
// snapshot serves every mode of a grid row, and each fork must still match
// its own cold run. This exercises concurrent forks from one snapshot too.
func TestForkIdentitySharedWarmup(t *testing.T) {
	p, _ := trace.ByName("mcf")
	mkOpt := func(mode config.Mode) Options {
		return Options{
			Config:       config.Table1(mode),
			Workload:     p,
			InstrPerCore: 20_000,
			WarmupInstr:  10_000,
			Seed:         42,
		}
	}
	modes := []config.Mode{config.ModeSecDDRXTS, config.ModeIntegrityTree, config.ModeSecDDRCTR}
	w, err := Warmup(mkOpt(modes[0]))
	if err != nil {
		t.Fatal(err)
	}
	type out struct {
		forked Result
		err    error
	}
	outs := make([]out, len(modes))
	done := make(chan int)
	for i, mode := range modes {
		go func(i int, mode config.Mode) {
			r, err := w.Fork(mkOpt(mode))
			outs[i] = out{forked: r, err: err}
			done <- i
		}(i, mode)
	}
	for range modes {
		<-done
	}
	for i, mode := range modes {
		if outs[i].err != nil {
			t.Fatalf("fork %v: %v", mode, outs[i].err)
		}
		cold, err := Run(mkOpt(mode))
		if err != nil {
			t.Fatalf("cold %v: %v", mode, err)
		}
		if !reflect.DeepEqual(cold, outs[i].forked) {
			t.Errorf("%v: fork from shared warmup diverges:\ncold: %+v\nfork: %+v",
				mode, cold, outs[i].forked)
		}
	}
}

func TestForkIdentitySingleCore(t *testing.T) {
	p, _ := trace.ByName("mcf")
	cfg := config.Table1(config.ModeSecDDRXTS)
	cfg.Core.NumCores = 1
	requireForkIdentity(t, Options{
		Config:       cfg,
		Workload:     p,
		InstrPerCore: 60_000,
		WarmupInstr:  20_000,
		Seed:         42,
	})
}

func TestForkIdentityMultiChannel(t *testing.T) {
	p, _ := trace.ByName("pr")
	cfg := config.Table1(config.ModeSecDDRCTR)
	cfg.DRAM.Channels = 2
	cfg.Normalize()
	requireForkIdentity(t, Options{
		Config:       cfg,
		Workload:     p,
		InstrPerCore: 30_000,
		WarmupInstr:  10_000,
		Seed:         42,
	})
}

func TestForkIdentityMarkovScenario(t *testing.T) {
	sc, ok := scenario.ByName("markov-server")
	if !ok {
		t.Fatal("unknown scenario markov-server")
	}
	requireForkIdentity(t, Options{
		Config:       config.Table1(config.ModeSecDDRCTR),
		Scenario:     sc,
		InstrPerCore: 30_000,
		WarmupInstr:  10_000,
		Seed:         42,
	})
}

// TestForkIdentityQuickScale runs the identity property at the harness's
// QuickScale instruction counts, where refresh sequences and write-drain
// episodes occur that the short matrix points never reach — the same
// reasoning as TestLargeScaleIdentity.
func TestForkIdentityQuickScale(t *testing.T) {
	for _, pt := range []struct {
		wl   string
		mode config.Mode
	}{
		{"lbm", config.ModeSecDDRCTR},
		{"pr", config.ModeIntegrityTree},
	} {
		pt := pt
		t.Run(pt.wl+"/"+pt.mode.String(), func(t *testing.T) {
			t.Parallel()
			p, _ := trace.ByName(pt.wl)
			requireForkIdentity(t, Options{
				Config:       config.Table1(pt.mode),
				Workload:     p,
				InstrPerCore: 120_000,
				WarmupInstr:  60_000,
				Seed:         42,
			})
		})
	}
}

// TestForkPerCycleIdentity localizes a fork-vs-cold divergence to the first
// differing simulated cycle, reusing the cycSnap signature from the
// event-loop identity suite. The cold run and the warmup+fork pair execute
// the same sequence of simulated iterations, so the hook streams are
// compared by sequence index. Serial: it owns the global debugHook.
func TestForkPerCycleIdentity(t *testing.T) {
	opt := tinyOpt(config.ModeIntegrityTree, "mcf")
	opt.InstrPerCore = 30_000
	opt.WarmupInstr = 10_000

	var cold []cycSnap
	debugHook = func(s *system) { cold = append(cold, snapOf(s)) }
	if _, err := Run(opt); err != nil {
		debugHook = nil
		t.Fatal(err)
	}

	idx, firstBad := 0, -1
	var forkBad, coldBad cycSnap
	debugHook = func(s *system) {
		if firstBad >= 0 {
			return
		}
		sn := snapOf(s)
		if idx >= len(cold) {
			firstBad, forkBad = idx, sn
			return
		}
		if sn != cold[idx] {
			firstBad, forkBad, coldBad = idx, sn, cold[idx]
		}
		idx++
	}
	w, err := Warmup(opt)
	if err == nil {
		_, err = w.Fork(opt)
	}
	debugHook = nil
	if err != nil {
		t.Fatal(err)
	}
	if firstBad >= 0 {
		ctl := w.sys.engine.Controllers()[0]
		t.Errorf("first divergence at iteration %d (cpu cycle %d):\nfork: %+v\ncold: %+v\nwarmed controller: %s",
			firstBad, forkBad.cpu, forkBad, coldBad, ctl.DebugState())
	}
	if idx != len(cold) {
		t.Errorf("iteration counts differ: cold %d, fork path %d", len(cold), idx)
	}
}

// ---------------------------------------------------------------------------
// WarmupKey semantics: the key must group exactly the points that may share
// a warmed snapshot.
// ---------------------------------------------------------------------------

func TestWarmupKeyGroupsModesTogether(t *testing.T) {
	base := tinyOpt(config.ModeSecDDRXTS, "mcf")
	for _, mode := range []config.Mode{
		config.ModeUnprotected,
		config.ModeEncryptOnlyCTR,
		config.ModeSecDDRCTR,
		config.ModeIntegrityTree,
		config.ModeInvisiMem,
	} {
		other := base
		other.Config = config.Table1(mode)
		if other.WarmupKey() != base.WarmupKey() {
			t.Errorf("mode %v does not share the warmup group with %v", mode, config.ModeSecDDRXTS)
		}
	}
	// The realistic InvisiMem variant derates the DRAM clock — that DOES
	// shape the warmed state, so it must warm separately.
	real := base
	real.Config = config.Table1(config.ModeInvisiMem)
	real.Config.Security.InvisiMemRealistic = true
	real.Config.Normalize()
	if real.WarmupKey() == base.WarmupKey() {
		t.Error("derated-clock InvisiMem config grouped with the full-clock warmup")
	}
}

func TestWarmupKeySeparatesWarmupInputs(t *testing.T) {
	base := tinyOpt(config.ModeSecDDRXTS, "mcf")
	distinct := map[string]Options{}
	for name, mutate := range map[string]func(*Options){
		"workload": func(o *Options) { p, _ := trace.ByName("lbm"); o.Workload = p },
		"seed":     func(o *Options) { o.Seed++ },
		"warmup":   func(o *Options) { o.WarmupInstr++ },
		"cores":    func(o *Options) { o.Config.Core.NumCores = 2 },
		"mshrs":    func(o *Options) { o.MSHRsPerCore = 8 },
	} {
		o := base
		mutate(&o)
		if o.WarmupKey() == base.WarmupKey() {
			t.Errorf("WarmupKey ignores %s", name)
		}
		distinct[name] = o
	}
	_ = distinct
	// The measured length must NOT split the group: a longer run forks from
	// the same snapshot.
	longer := base
	longer.InstrPerCore *= 2
	if longer.WarmupKey() != base.WarmupKey() {
		t.Error("WarmupKey depends on InstrPerCore; measured length should not split warmup groups")
	}
	// But it must still change the run digest, of course.
	if longer.Digest() == base.Digest() {
		t.Error("Digest ignores InstrPerCore")
	}
}

func TestForkRejectsForeignPoint(t *testing.T) {
	w, err := Warmup(tinyOpt(config.ModeSecDDRXTS, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Fork(tinyOpt(config.ModeSecDDRXTS, "lbm")); err == nil {
		t.Error("fork accepted a point from a different warmup group")
	}
	if _, err := w.Fork(Options{}); err == nil {
		t.Error("fork accepted zero options")
	}
}

// TestWarmupCounter pins the warmup-execution counter the harness tests
// rely on: one warmup per Warmup call and per cold Run, none per Fork.
func TestWarmupCounter(t *testing.T) {
	opt := tinyOpt(config.ModeSecDDRXTS, "mcf")
	before := WarmupRuns()
	w, err := Warmup(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Fork(opt); err != nil {
		t.Fatal(err)
	}
	if got := WarmupRuns() - before; got != 1 {
		t.Errorf("Warmup+Fork executed %d warmups, want 1", got)
	}
	if _, err := Run(opt); err != nil {
		t.Fatal(err)
	}
	if got := WarmupRuns() - before; got != 2 {
		t.Errorf("cold Run did not count its warmup (delta %d, want 2)", got)
	}
}
