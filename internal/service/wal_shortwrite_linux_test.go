package service

import (
	"encoding/json"
	"os"
	"os/exec"
	"os/signal"
	"syscall"
	"testing"
)

// walShortWriteDirEnv hands the child process of TestWALShortWriteTruncated
// its directory.
const walShortWriteDirEnv = "SERVICE_WAL_SHORT_WRITE_DIR"

// TestWALShortWriteTruncated: a WAL append cut short by a write error
// (the file-size limit, with SIGXFSZ ignored) must not leave torn bytes
// in front of the records acknowledged after it, or replay — and with it
// every later promotion over the directory — fails. A child process
// lowers RLIMIT_FSIZE below one record, appends once (which fails), lifts
// the limit and appends twice; replay must return both acknowledged
// records.
func TestWALShortWriteTruncated(t *testing.T) {
	if dir := os.Getenv(walShortWriteDirEnv); dir != "" {
		walShortWriteChild(t, dir)
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestWALShortWriteTruncated$")
	cmd.Env = append(os.Environ(), walShortWriteDirEnv+"="+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	sweeps, n, err := ReplayWAL(dir, "")
	if err != nil {
		t.Fatalf("replay after a failed append: %v", err)
	}
	if ws := sweeps["sw-1"]; n != 2 || ws == nil || ws.Key != "k" || ws.Done[1].Digest != "d1" {
		t.Fatalf("replay = %d records, %+v; want the sweep and its done record", n, ws)
	}
}

func walShortWriteChild(t *testing.T, dir string) {
	w, err := OpenWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	lost := walRecord{Type: walSweepRec, Sweep: "sw-0", Key: "lost", Spec: json.RawMessage(`{"workloads":["mcf","lbm","pr","omnetpp"]}`)}
	line, _ := json.Marshal(lost)
	restore := limitFileSize(t, uint64(len(line)/2))
	if err := w.Append(lost); err == nil {
		t.Fatal("append past the file-size limit succeeded")
	}
	restore()
	for _, rec := range []walRecord{
		{Type: walSweepRec, Sweep: "sw-1", Key: "k", Spec: json.RawMessage(`{}`)},
		{Type: walDoneRec, Sweep: "sw-1", Seq: 1, JobKey: "a", Digest: "d1"},
	} {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// limitFileSize lowers this process's RLIMIT_FSIZE soft limit to max
// bytes, with SIGXFSZ ignored so an oversized write fails with EFBIG
// instead of killing the process, and returns the undo.
func limitFileSize(t *testing.T, max uint64) (restore func()) {
	signal.Ignore(syscall.SIGXFSZ)
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	cut := old
	cut.Cur = max
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &cut); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Fatal(err)
		}
	}
}
