package resultstore

import (
	"encoding/json"
	"os"
	"os/exec"
	"os/signal"
	"syscall"
	"testing"
)

// shortWriteDirEnv hands the child process of TestShortWriteTruncated its
// store directory.
const shortWriteDirEnv = "RESULTSTORE_SHORT_WRITE_DIR"

// TestShortWriteTruncated: a Record cut short by a write error (here the
// file-size limit, with SIGXFSZ ignored) must not leave torn bytes in
// front of the records acknowledged after it. A child process lowers
// RLIMIT_FSIZE below one record, records once (which fails), lifts the
// limit and records twice; the store must then reopen with both
// acknowledged records.
func TestShortWriteTruncated(t *testing.T) {
	if dir := os.Getenv(shortWriteDirEnv); dir != "" {
		shortWriteChild(t, dir)
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestShortWriteTruncated$")
	cmd.Env = append(os.Environ(), shortWriteDirEnv+"="+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	s := mustOpen(t, dir, Options{})
	for i := 1; i <= 2; i++ {
		if _, ok := s.Lookup(digest(i)); !ok {
			t.Errorf("acknowledged record %d lost", i)
		}
	}
	if _, ok := s.Lookup(digest(0)); ok {
		t.Error("the failed record was stored")
	}
}

func shortWriteChild(t *testing.T, dir string) {
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	line, _ := json.Marshal(record{Digest: digest(0), Result: fakeResult(0)})
	restore := limitFileSize(t, uint64(len(line)/2))
	if err := s.Record(digest(0), fakeResult(0)); err == nil {
		t.Fatal("record past the file-size limit succeeded")
	}
	if s.Health() == nil {
		t.Error("Health is nil after a failed append")
	}
	restore()
	for i := 1; i <= 2; i++ {
		if err := s.Record(digest(i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
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
