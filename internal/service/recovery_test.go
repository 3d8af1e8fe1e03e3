package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"secddr/internal/resultstore"
	"secddr/internal/sim"
)

// TestCrashRecovery is the durability contract end to end: server 1
// completes two of a sweep's four jobs (results in the store, done
// records in the WAL) and dies with the other two unfinished; server 2
// boots over the same directory, replays the WAL, and finishes the
// sweep. Every digest executes exactly once across both lives, the two
// replayed completions come back under their original sequence numbers,
// and a cursor-resuming stream is byte-identical to a fresh one.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec() // 4 jobs, 4 distinct digests
	const key = "crashy"
	id, err := SweepID(key, spec)
	if err != nil {
		t.Fatal(err)
	}

	// One execution ledger across both server lives.
	var mu sync.Mutex
	executed := map[string]int{}
	countingSim := func(o sim.Options) (sim.Result, error) {
		mu.Lock()
		executed[o.Digest()]++
		mu.Unlock()
		return fakeSim(o)
	}

	// --- Life 1: run two jobs, die with two queued. ---
	store1, err := resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wal1, err := OpenWAL(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	runSim := func(o sim.Options) (sim.Result, error) {
		started <- struct{}{}
		<-release
		return countingSim(o)
	}
	srv1 := NewServer(store1, ServerOptions{Workers: 2, WAL: wal1, runSim: runSim})
	sw1, attached, err := srv1.SubmitKeyed(key, spec)
	if err != nil || attached {
		t.Fatalf("submit = attached %v, %v", attached, err)
	}
	// Both pool workers are now holding a job; the other two sit queued.
	<-started
	<-started
	// "Crash": queued jobs fail with ErrShuttingDown (resumable — no WAL
	// end record), then the in-flight pair finishes and lands in store
	// and WAL, exactly like a SIGTERM arriving mid-sweep.
	srv1.Shutdown()
	close(release)
	if st := waitState(t, sw1); st.State != string(stateFailed) {
		t.Fatalf("interrupted sweep state = %q, want failed", st.State)
	}
	srv1.Drain()
	if n := wal1.Lines(); n != 3 { // 1 sweep + 2 done, no end record
		t.Fatalf("WAL records at death = %d, want 3", n)
	}
	if err := wal1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	// --- Life 2: boot over the same directory and recover. ---
	store2, err := resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	wal2, err := OpenWAL(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	srv2 := NewServer(store2, ServerOptions{Workers: 2, WAL: wal2, runSim: countingSim})
	resumed, err := srv2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("Recover() resumed %d sweeps, want 1", resumed)
	}
	sw2, ok := srv2.lookupSweep(id)
	if !ok {
		t.Fatalf("recovered server does not know sweep %s", id)
	}
	st := waitState(t, sw2)
	if st.State != string(stateDone) {
		t.Fatalf("recovered sweep state = %q (%s), want done", st.State, st.Error)
	}
	if st.Stats.Recovered != 2 {
		t.Errorf("stats.Recovered = %d, want 2 (the replayed completions)", st.Stats.Recovered)
	}
	if got := st.Stats.Executed + st.Stats.Cached; got != 4 {
		t.Errorf("executed+cached = %d, want total 4 (%+v)", got, st.Stats)
	}

	// Zero lost, zero duplicated: each digest ran exactly once across
	// both lives.
	mu.Lock()
	if len(executed) != 4 {
		t.Errorf("%d digests executed, want 4: %v", len(executed), executed)
	}
	for d, n := range executed {
		if n != 1 {
			t.Errorf("digest %s executed %d times, want 1", d, n)
		}
	}
	mu.Unlock()

	// Cursor resume is byte-identical: a client that consumed the stream
	// up to some seq and reconnects with ?after= gets exactly the lines
	// it is missing, bytes unchanged.
	ts := httptest.NewServer(srv2.Handler())
	defer ts.Close()
	full := streamLines(t, ts.URL+"/v1/sweeps/"+id+"/results")
	if len(full) != 5 { // 4 results + end sentinel
		t.Fatalf("full stream = %d lines, want 5: %q", len(full), full)
	}
	var second StreamItem
	if err := json.Unmarshal([]byte(full[1]), &second); err != nil {
		t.Fatal(err)
	}
	resumedLines := streamLines(t, ts.URL+"/v1/sweeps/"+id+"/results?after="+itoa(second.Seq))
	want := full[2:]
	if len(resumedLines) != len(want) {
		t.Fatalf("resumed stream = %d lines, want %d", len(resumedLines), len(want))
	}
	for i := range want {
		if resumedLines[i] != want[i] {
			t.Errorf("resumed line %d differs:\n got %s\nwant %s", i, resumedLines[i], want[i])
		}
	}

	srv2.Shutdown()
	srv2.Drain()
}

// streamLines fetches an NDJSON result stream and returns its raw lines.
func streamLines(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// TestRecoveryTerminalSweep: a sweep whose WAL entry carries an end
// record is re-registered read-only — status and the full stream stay
// available after restart, but nothing re-runs.
func TestRecoveryTerminalSweep(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec()
	const key = "finished"
	id, err := SweepID(key, spec)
	if err != nil {
		t.Fatal(err)
	}

	store1, err := resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wal1, err := OpenWAL(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := NewServer(store1, ServerOptions{Workers: 2, WAL: wal1, runSim: fakeSim})
	sw1, _, err := srv1.SubmitKeyed(key, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, sw1); st.State != string(stateDone) {
		t.Fatalf("sweep state = %q, want done", st.State)
	}
	srv1.Shutdown()
	srv1.Drain()
	wal1.Close()
	store1.Close()

	store2, err := resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	wal2, err := OpenWAL(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	runSim := func(o sim.Options) (sim.Result, error) {
		t.Errorf("terminal sweep re-ran digest %s", o.Digest())
		return fakeSim(o)
	}
	srv2 := NewServer(store2, ServerOptions{Workers: 2, WAL: wal2, runSim: runSim})
	resumed, err := srv2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Fatalf("Recover() resumed %d, want 0 (sweep was terminal)", resumed)
	}
	sw2, ok := srv2.lookupSweep(id)
	if !ok {
		t.Fatalf("terminal sweep %s not re-registered", id)
	}
	st := sw2.status()
	if st.State != string(stateDone) || st.Done != 4 {
		t.Fatalf("restored terminal sweep = %+v, want done with 4 results", st)
	}
	srv2.Shutdown()
	srv2.Drain()
}

// TestRecoverySkipsRepeatedKeySpec: a WAL sweep whose spec repeats a job
// key, as servers accepting such specs wrote them, no longer expands.
// Recovery skips it with a warning instead of replaying one completion
// for two jobs.
func TestRecoverySkipsRepeatedKeySpec(t *testing.T) {
	dir := t.TempDir()
	store, err := resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	wal1, err := OpenWAL(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Modes: []string{"secddr+ctr", "secddr+ctr"}, Workloads: []string{"mcf"}, InstrPerCore: 5_000, WarmupInstr: 1_000}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	id, err := SweepID("twice", spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := fixtureJob(t, "mcf/secddr+ctr").Opt
	res, _ := fakeSim(opt)
	if err := store.Record(opt.Digest(), res); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []walRecord{
		{Type: walSweepRec, Sweep: id, Key: "twice", Spec: raw},
		{Type: walDoneRec, Sweep: id, Seq: 1, JobKey: "mcf/secddr+ctr", Digest: opt.Digest()},
		{Type: walDoneRec, Sweep: id, Seq: 2, JobKey: "mcf/secddr+ctr", Digest: opt.Digest(), Cached: true},
	} {
		if err := wal1.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal1.Close(); err != nil {
		t.Fatal(err)
	}

	wal2, err := OpenWAL(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	var logs bytes.Buffer
	srv := NewServer(store, ServerOptions{Workers: 1, WAL: wal2, runSim: fakeSim, Log: slog.New(slog.NewTextHandler(&logs, nil))})
	defer srv.Drain()
	defer srv.Shutdown()
	resumed, err := srv.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Errorf("Recover() resumed %d sweeps, want 0", resumed)
	}
	if _, ok := srv.lookupSweep(id); ok {
		t.Errorf("sweep %s with a repeated job key was registered", id)
	}
	if !strings.Contains(logs.String(), "no longer expands") {
		t.Errorf("no skip warning logged:\n%s", logs.String())
	}
}

// TestRecoveryDropsUnbackedCompletion: the WAL records completions under
// seqs 1-3, but the store holds only the results of seqs 1 and 3 (seq 2's
// record was lost from the store's tail). Recovery replays 1 and 3 under
// their seqs, drops the claim for 2, and re-runs that job under seq 4:
// the stream skips seq 2 rather than reuse it, and nothing else re-runs.
func TestRecoveryDropsUnbackedCompletion(t *testing.T) {
	dir := t.TempDir()
	store, err := resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	spec := Spec{Modes: []string{"unprotected", "secddr+ctr", "secddr+xts"}, Workloads: []string{"mcf"}, InstrPerCore: 5_000, WarmupInstr: 1_000}
	const key = "unbacked"
	id, err := SweepID(key, spec)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	jobs := grid.Jobs()
	wal1, err := OpenWAL(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal1.Append(walRecord{Type: walSweepRec, Sweep: id, Key: key, Spec: raw}); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		d := j.Opt.Digest()
		if i != 1 {
			res, _ := fakeSim(j.Opt)
			if err := store.Record(d, res); err != nil {
				t.Fatal(err)
			}
		}
		if err := wal1.Append(walRecord{Type: walDoneRec, Sweep: id, Seq: i + 1, JobKey: j.Key, Digest: d}); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal1.Close(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var ran []string
	countingSim := func(o sim.Options) (sim.Result, error) {
		mu.Lock()
		ran = append(ran, o.Digest())
		mu.Unlock()
		return fakeSim(o)
	}
	wal2, err := OpenWAL(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	srv := NewServer(store, ServerOptions{Workers: 1, WAL: wal2, runSim: countingSim})
	defer srv.Drain()
	defer srv.Shutdown()
	if resumed, err := srv.Recover(); err != nil || resumed != 1 {
		t.Fatalf("Recover() = %d, %v; want 1 sweep resumed", resumed, err)
	}
	sw, ok := srv.lookupSweep(id)
	if !ok {
		t.Fatalf("recovered server does not know sweep %s", id)
	}
	st := waitState(t, sw)
	if st.State != string(stateDone) || st.Stats.Recovered != 2 || st.Stats.Executed != 3 {
		t.Fatalf("recovered sweep = %+v, want done with 2 recovered and 3 executed", st)
	}
	mu.Lock()
	if len(ran) != 1 || ran[0] != jobs[1].Opt.Digest() {
		t.Errorf("re-ran %v, want only the unbacked job %s", ran, jobs[1].Opt.Digest())
	}
	mu.Unlock()

	sw.mu.Lock()
	defer sw.mu.Unlock()
	want := []struct {
		seq int
		key string
	}{{1, jobs[0].Key}, {3, jobs[2].Key}, {4, jobs[1].Key}}
	if len(sw.results) != len(want) {
		t.Fatalf("stream holds %d results, want %d", len(sw.results), len(want))
	}
	for i, w := range want {
		if got := sw.results[i]; got.Seq != w.seq || got.Key != w.key {
			t.Errorf("result %d = seq %d %s, want seq %d %s", i, got.Seq, got.Key, w.seq, w.key)
		}
	}
	if sw.nextSeq != 5 {
		t.Errorf("nextSeq = %d, want 5", sw.nextSeq)
	}
}
