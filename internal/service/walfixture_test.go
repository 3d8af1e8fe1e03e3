package service

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"secddr/internal/harness"
	"secddr/internal/resultstore"
	"secddr/internal/sim"
)

var recordWALFixture = flag.Bool("record-wal-fixture", false,
	"rewrite testdata/walfixture and its golden with this build's server")

const (
	walFixtureDir    = "testdata/walfixture"
	walFixtureGolden = "testdata/walfixture.golden.json"
)

// The fixture's two sweeps. They share lbm/secddr+ctr, which the
// interrupted sweep joins while the terminal one has it open, and each
// has one job whose result was stored before it was submitted.
var (
	fixtureTerminal = Spec{
		Modes:        []string{"unprotected", "secddr+ctr"},
		Workloads:    []string{"mcf", "lbm"},
		InstrPerCore: 5_000,
		WarmupInstr:  1_000,
	}
	fixtureInterrupted = Spec{
		Modes:        []string{"secddr+ctr", "integrity-tree"},
		Workloads:    []string{"lbm", "pr", "omnetpp"},
		InstrPerCore: 5_000,
		WarmupInstr:  1_000,
	}
	fixturePrestored = []string{"mcf/unprotected", "pr/integrity-tree"}
)

// walFixtureSweep is one sweep's recovered state in the golden file.
type walFixtureSweep struct {
	ID string `json:"id"`
	// Right after Recover, before any job runs: the replayed stream
	// lines, byte for byte, and the seq the next completion gets.
	Replayed []string `json:"replayed"`
	NextSeq  int      `json:"next_seq"`
	State    string   `json:"state"`
	// Once the resumed jobs have run: the terminal state, the stats, and
	// the keys completed after recovery (in key order; they race).
	FinalState   string        `json:"final_state"`
	FinalStats   harness.Stats `json:"final_stats"`
	FinalNextSeq int           `json:"final_next_seq"`
	Completed    []string      `json:"completed"`
}

type walFixtureGoldenDoc struct {
	Resumed int               `json:"resumed"`
	Sweeps  []walFixtureSweep `json:"sweeps"`
}

// TestWALFixture replays a committed store directory, written by an
// earlier build's server, and checks that recovery re-publishes the same
// stream lines under the same seqs and finishes with the same stats. The
// directory holds a terminal sweep and an interrupted one whose
// completions include executed jobs, store hits, and a job joined from
// the other sweep. -record-wal-fixture rewrites the directory and the
// golden; do that only when the WAL format changes on purpose.
func TestWALFixture(t *testing.T) {
	if *recordWALFixture {
		if err := os.RemoveAll(walFixtureDir); err != nil {
			t.Fatal(err)
		}
		writeWALFixture(t, walFixtureDir)
	}
	got := recoverWALFixture(t)
	if *recordWALFixture {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walFixtureGolden, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(walFixtureGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want walFixtureGoldenDoc
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if got.Resumed != want.Resumed {
		t.Errorf("Recover() resumed %d sweeps, want %d", got.Resumed, want.Resumed)
	}
	if len(got.Sweeps) != len(want.Sweeps) {
		t.Fatalf("recovered %d sweeps, want %d", len(got.Sweeps), len(want.Sweeps))
	}
	for i, w := range want.Sweeps {
		g := got.Sweeps[i]
		if !slices.Equal(g.Replayed, w.Replayed) {
			t.Errorf("sweep %s replayed stream differs:\n got %q\nwant %q", w.ID, g.Replayed, w.Replayed)
		}
		g.Replayed, w.Replayed = nil, nil
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if string(gj) != string(wj) {
			t.Errorf("sweep %s recovered state differs:\n got %s\nwant %s", w.ID, gj, wj)
		}
	}
}

// fixtureJob returns the fixture job under key, from either sweep.
func fixtureJob(t *testing.T, key string) harness.Job {
	t.Helper()
	for _, spec := range []Spec{fixtureTerminal, fixtureInterrupted} {
		grid, err := spec.Grid()
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range grid.Jobs() {
			if j.Key == key {
				return j
			}
		}
	}
	t.Fatalf("no fixture job %q", key)
	return harness.Job{}
}

// writeWALFixture runs the fixture's two sweeps on a one-slot pool that
// executes one point per release, and stops the server while the
// interrupted sweep's fifth job runs, leaving its last two unrun.
func writeWALFixture(t *testing.T, dir string) {
	store, err := resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wal, err := OpenWAL(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range fixturePrestored {
		j := fixtureJob(t, key)
		res, _ := fakeSim(j.Opt)
		if err := store.Record(j.Opt.Digest(), res); err != nil {
			t.Fatal(err)
		}
	}
	started := make(chan string)
	release := make(chan struct{})
	runSim := func(o sim.Options) (sim.Result, error) {
		started <- o.Digest()
		<-release
		return fakeSim(o)
	}
	srv := NewServer(store, ServerOptions{Workers: 1, WAL: wal, runSim: runSim})
	swT, _, err := srv.SubmitKeyed("terminal", fixtureTerminal)
	if err != nil {
		t.Fatal(err)
	}
	order := []string{"mcf/secddr+ctr", "lbm/unprotected", "lbm/secddr+ctr", "lbm/integrity-tree", "pr/secddr+ctr"}
	var swI *sweep
	for i, key := range order {
		if d := <-started; d != fixtureJob(t, key).Opt.Digest() {
			t.Fatalf("pool runs %s, want %s", d, key)
		}
		if i == 0 {
			// lbm/secddr+ctr is still open: the interrupted sweep joins it.
			if swI, _, err = srv.SubmitKeyed("interrupted", fixtureInterrupted); err != nil {
				t.Fatal(err)
			}
		}
		if i == len(order)-1 {
			srv.Shutdown()
		}
		release <- struct{}{}
	}
	if st := waitState(t, swT); st.State != string(stateDone) {
		t.Fatalf("terminal sweep = %+v", st)
	}
	if st := waitState(t, swI); st.State != string(stateFailed) || st.Done != 4 {
		t.Fatalf("interrupted sweep = %+v, want failed with 4 done", st)
	}
	srv.Drain()
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// recoverWALFixture boots a server over a copy of the fixture, snapshots
// every sweep right after Recover, then lets the resumed jobs run.
func recoverWALFixture(t *testing.T) walFixtureGoldenDoc {
	dir := t.TempDir()
	names, err := os.ReadDir(walFixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range names {
		raw, err := os.ReadFile(filepath.Join(walFixtureDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, err := resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	wal, err := OpenWAL(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	gate := make(chan struct{})
	runSim := func(o sim.Options) (sim.Result, error) {
		<-gate
		return fakeSim(o)
	}
	srv := NewServer(store, ServerOptions{Workers: 1, WAL: wal, runSim: runSim})
	var doc walFixtureGoldenDoc
	if doc.Resumed, err = srv.Recover(); err != nil {
		t.Fatal(err)
	}
	var sweeps []*sweep
	for _, key := range []string{"terminal", "interrupted"} {
		spec := fixtureTerminal
		if key == "interrupted" {
			spec = fixtureInterrupted
		}
		id, err := SweepID(key, spec)
		if err != nil {
			t.Fatal(err)
		}
		sw, ok := srv.lookupSweep(id)
		if !ok {
			t.Fatalf("sweep %q (%s) not recovered", key, id)
		}
		sweeps = append(sweeps, sw)
		fs := walFixtureSweep{ID: id}
		sw.mu.Lock()
		for _, item := range sw.results {
			line, err := json.Marshal(item)
			if err != nil {
				t.Fatal(err)
			}
			fs.Replayed = append(fs.Replayed, string(line))
		}
		fs.NextSeq, fs.State = sw.nextSeq, string(sw.state)
		sw.mu.Unlock()
		doc.Sweeps = append(doc.Sweeps, fs)
	}
	close(gate)
	for i, sw := range sweeps {
		st := waitState(t, sw)
		fs := &doc.Sweeps[i]
		fs.FinalState, fs.FinalStats = st.State, st.Stats
		sw.mu.Lock()
		fs.FinalNextSeq = sw.nextSeq
		for _, item := range sw.results[len(fs.Replayed):] {
			fs.Completed = append(fs.Completed, item.Key)
		}
		sw.mu.Unlock()
		slices.Sort(fs.Completed)
	}
	srv.Shutdown()
	srv.Drain()
	return doc
}
