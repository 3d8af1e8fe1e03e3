package service

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
