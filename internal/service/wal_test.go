package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWALRoundTrip: records appended by one WAL replay back verbatim.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := json.Marshal(Spec{Workloads: []string{"mcf"}})
	recs := []walRecord{
		{Type: walSweepRec, Sweep: "sw-1", Key: "k", Spec: spec},
		{Type: walDoneRec, Sweep: "sw-1", Seq: 1, JobKey: "a", Digest: "d1", Cached: true},
		{Type: walDoneRec, Sweep: "sw-1", Seq: 2, JobKey: "b", Digest: "d2"},
		{Type: walEndRec, Sweep: "sw-1", State: "done"},
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Lines(); got != 4 {
		t.Fatalf("Lines() = %d, want 4", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	sweeps, n, err := ReplayWAL(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || len(sweeps) != 1 {
		t.Fatalf("replayed %d records, %d sweeps", n, len(sweeps))
	}
	ws := sweeps["sw-1"]
	if ws == nil || ws.Key != "k" || string(ws.Spec) != string(spec) {
		t.Fatalf("sweep record mangled: %+v", ws)
	}
	if len(ws.Done) != 2 || !ws.Done[1].Cached || ws.Done[2].Digest != "d2" {
		t.Fatalf("done records mangled: %+v", ws.Done)
	}
	if ws.EndState != "done" || ws.maxSeq() != 2 {
		t.Fatalf("end/maxSeq mangled: state=%q maxSeq=%d", ws.EndState, ws.maxSeq())
	}
	// Every record carries the opener's epoch.
	if ws.Done[1].Epoch != 3 {
		t.Fatalf("epoch not stamped: %+v", ws.Done[1])
	}
}

// TestWALEmptyDir: replay over a directory with no WAL files is a no-op,
// and an empty (never-appended) WAL removes its file on Close.
func TestWALEmptyDir(t *testing.T) {
	dir := t.TempDir()
	sweeps, n, err := ReplayWAL(dir, "")
	if err != nil || n != 0 || len(sweeps) != 0 {
		t.Fatalf("empty dir replay = %v, %d, %v", sweeps, n, err)
	}

	w, err := OpenWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	name := w.Name()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
		t.Fatalf("empty WAL file %s survived Close: %v", name, err)
	}
}

// TestWALTornTail: an unterminated (or unparsable) final line is the
// append a crash interrupted — tolerated, earlier records intact. The
// same garbage mid-file is corruption and errors.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	good := `{"type":"sweep","sweep":"sw-1","key":"k","spec":{}}` + "\n" +
		`{"type":"done","sweep":"sw-1","seq":1,"job_key":"a","digest":"d1"}` + "\n"

	if err := os.WriteFile(filepath.Join(dir, "wal-1-aa.wal"), []byte(good+`{"type":"done","sw`), 0o644); err != nil {
		t.Fatal(err)
	}
	sweeps, n, err := ReplayWAL(dir, "")
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if n != 2 || len(sweeps["sw-1"].Done) != 1 {
		t.Fatalf("replay after torn tail = %d records, %+v", n, sweeps["sw-1"])
	}

	// A terminated-but-unparsable LAST line is still the torn tail.
	if err := os.WriteFile(filepath.Join(dir, "wal-1-aa.wal"), []byte(good+"garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, n, err = ReplayWAL(dir, ""); err != nil || n != 2 {
		t.Fatalf("unparsable final line = %d, %v; want tolerated", n, err)
	}

	// Mid-file garbage is corruption.
	if err := os.WriteFile(filepath.Join(dir, "wal-1-aa.wal"), []byte("garbage\n"+good), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err = ReplayWAL(dir, ""); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("mid-file corruption error = %v", err)
	}
}

// TestWALReplayUsesStoreRule pins the two places where WAL replay follows
// the store segments' torn-tail rule (resultstore.ScanLines): a final
// line without its newline is an interrupted append and is not applied
// even when it parses, and a blank line with records after it is
// corruption.
func TestWALReplayUsesStoreRule(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-1-aa.wal")
	sweep := `{"type":"sweep","sweep":"sw-1","key":"k","spec":{}}`
	done := `{"type":"done","sweep":"sw-1","seq":1,"job_key":"a","digest":"d1"}`

	if err := os.WriteFile(path, []byte(sweep+"\n"+done), 0o644); err != nil {
		t.Fatal(err)
	}
	sweeps, n, err := ReplayWAL(dir, "")
	if err != nil || n != 1 || len(sweeps["sw-1"].Done) != 0 {
		t.Fatalf("unterminated final record: %d records, %v, %+v; want it not applied", n, err, sweeps["sw-1"])
	}

	if err := os.WriteFile(path, []byte(sweep+"\n\n"+done+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReplayWAL(dir, ""); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("blank line mid-WAL: err = %v, want corruption", err)
	}
}

// TestWALEpochFencing: when two WAL files disagree about one (sweep,
// seq) or a terminal state — a fenced-off zombie leader still flushing —
// the record with the higher epoch wins regardless of file order.
func TestWALEpochFencing(t *testing.T) {
	dir := t.TempDir()
	// File name order: the old leader's file (epoch 1) sorts first.
	old := `{"type":"sweep","sweep":"sw-1","key":"k","spec":{},"epoch":1}` + "\n" +
		`{"type":"done","sweep":"sw-1","seq":1,"job_key":"a","digest":"old","epoch":1}` + "\n" +
		`{"type":"end","sweep":"sw-1","state":"failed","error":"zombie","epoch":1}` + "\n"
	niu := `{"type":"done","sweep":"sw-1","seq":1,"job_key":"a","digest":"new","epoch":2}` + "\n" +
		`{"type":"end","sweep":"sw-1","state":"done","epoch":2}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "wal-1-aa.wal"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-2-bb.wal"), []byte(niu), 0o644); err != nil {
		t.Fatal(err)
	}
	sweeps, _, err := ReplayWAL(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	ws := sweeps["sw-1"]
	if ws.Done[1].Digest != "new" {
		t.Errorf("seq 1 digest = %q, want the epoch-2 record", ws.Done[1].Digest)
	}
	if ws.EndState != "done" || ws.EndError != "" {
		t.Errorf("end state = %q/%q, want the epoch-2 done", ws.EndState, ws.EndError)
	}
	// The spec (only in the old file) still merges in.
	if ws.Key != "k" || ws.Spec == nil {
		t.Errorf("spec lost in merge: %+v", ws)
	}

	// skip parameter: ignoring the newer file flips the winners back.
	sweeps, _, err = ReplayWAL(dir, "wal-2-bb.wal")
	if err != nil {
		t.Fatal(err)
	}
	if ws := sweeps["sw-1"]; ws.Done[1].Digest != "old" || ws.EndState != "failed" {
		t.Errorf("skip did not exclude the file: %+v", ws)
	}
}

// TestWALUnknownRecordType: forward compatibility — a record kind this
// build does not know is skipped, not an error.
func TestWALUnknownRecordType(t *testing.T) {
	dir := t.TempDir()
	data := `{"type":"sweep","sweep":"sw-1","key":"k","spec":{}}` + "\n" +
		`{"type":"compaction-marker","sweep":"sw-1"}` + "\n" +
		`{"type":"done","sweep":"sw-1","seq":1,"job_key":"a","digest":"d1"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "wal-1-aa.wal"), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	sweeps, n, err := ReplayWAL(dir, "")
	if err != nil || n != 3 {
		t.Fatalf("replay = %d, %v", n, err)
	}
	if ws := sweeps["sw-1"]; len(ws.Done) != 1 || ws.Spec == nil {
		t.Fatalf("known records lost around the unknown one: %+v", sweeps["sw-1"])
	}
}
