package resultstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScanLines checks the torn-tail rule on arbitrary bytes, with
// json.Valid standing in for a record decoder: scanning consumes whole
// lines only, every consumed line was accepted, what stays unconsumed
// without an error is at most one torn line, and a rescan of the consumed
// prefix takes all of it.
func FuzzScanLines(f *testing.F) {
	rec := `{"digest":"d1","result":{}}`
	for _, seed := range []string{
		"",
		rec + "\n",
		rec + "\n" + rec + "\n",
		rec + "\n" + `{"digest":"d2","res`,
		rec + "\ngarbage\n",
		"garbage\n" + rec + "\n",
		rec + "\n\n" + rec + "\n",
		rec + "\n\n",
		"\n",
		"garbage\npartial",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var accepted []byte
		consumed, err := ScanLines(raw, func(line []byte) bool {
			if !json.Valid(line) {
				return false
			}
			accepted = append(append(accepted, line...), '\n')
			return true
		})
		if consumed < 0 || consumed > len(raw) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(raw))
		}
		if consumed > 0 && raw[consumed-1] != '\n' {
			t.Fatalf("consumed %d bytes, not ending on a newline", consumed)
		}
		if !bytes.Equal(accepted, raw[:consumed]) {
			t.Fatalf("consumed %q, but fn accepted %q", raw[:consumed], accepted)
		}
		rest := raw[consumed:]
		if nl := bytes.IndexByte(rest, '\n'); err == nil && nl >= 0 && nl != len(rest)-1 {
			t.Fatalf("unconsumed %q holds complete lines after the torn one, yet no error", rest)
		} else if err != nil && (nl < 0 || nl == len(rest)-1) {
			t.Fatalf("error %v on a torn tail %q", err, rest)
		}
		again, err := ScanLines(raw[:consumed], func(line []byte) bool { return json.Valid(line) })
		if err != nil || again != consumed {
			t.Fatalf("rescan of the consumed prefix: %d of %d bytes, %v", again, consumed, err)
		}
	})
}

// TestBrokenLogDegradesStore: once a failed write could not be truncated
// away, the segment refuses appends, so Health stays degraded instead of
// a later append burying the torn bytes mid-file.
func TestBrokenLogDegradesStore(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	s.mu.Lock()
	s.seg.broken = errors.New("torn line left behind")
	s.mu.Unlock()
	for i := 0; i < 2; i++ {
		if err := s.Record(digest(i), fakeResult(i)); err == nil {
			t.Fatal("append to a broken log succeeded")
		}
	}
	if err := s.Health(); err == nil {
		t.Fatal("Health is nil with a broken segment")
	}
}

// TestReplaceFile: the file is replaced whole and no temp file is left.
func TestReplaceFile(t *testing.T) {
	dir := t.TempDir()
	for _, body := range []string{"first\n", "second\n"} {
		if err := ReplaceFile(dir, "DOC", []byte(body), body == "second\n"); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(filepath.Join(dir, "DOC")); err != nil || string(got) != body {
			t.Fatalf("DOC = %q, %v; want %q", got, err, body)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("directory holds %d entries, want only DOC", len(ents))
	}
}
