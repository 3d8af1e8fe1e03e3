package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"secddr/internal/config"
	"secddr/internal/sim"
)

// fakeResult fabricates a distinguishable result; store tests never need
// real simulations, only round-trippable payloads. (Mode must be a real
// mode: config.Mode refuses to marshal its zero value.)
func fakeResult(i int) sim.Result {
	return sim.Result{
		Workload:     fmt.Sprintf("w%d", i),
		Mode:         config.ModeUnprotected,
		IPC:          float64(i) + 0.5,
		PerCoreIPC:   []float64{float64(i), float64(i) + 1},
		Instructions: uint64(i) * 1000,
		Cycles:       int64(i) * 4000,
	}
}

func digest(i int) string { return fmt.Sprintf("d%04d", i) }

func mustOpen(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRecordLookupReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 20; i++ {
		if err := s.Record(digest(i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, ok := s.Lookup(digest(7))
	if !ok || !reflect.DeepEqual(got, fakeResult(7)) {
		t.Fatalf("lookup(7) = %+v, %v", got, ok)
	}
	if _, ok := s.Lookup("missing"); ok {
		t.Error("lookup invented a result")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir, Options{})
	if st := re.Stats(); st.Entries != 20 {
		t.Fatalf("reopened entries = %d, want 20", st.Entries)
	}
	for i := 0; i < 20; i++ {
		if got, ok := re.Lookup(digest(i)); !ok || !reflect.DeepEqual(got, fakeResult(i)) {
			t.Fatalf("reopened lookup(%d) = %+v, %v", i, got, ok)
		}
	}
}

// TestTruncatedTailTolerated chops the final record in half — the shape a
// crash mid-append leaves behind — and requires recovery of all the rest.
func TestTruncatedTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := s.Record(digest(i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	names, err := LogNames(dir, segPrefix, segSuffix)
	if err != nil || len(names) != 1 {
		t.Fatalf("segments = %v, %v", names, err)
	}
	path := filepath.Join(dir, names[0])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-25], 0o644); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir, Options{})
	if st := re.Stats(); st.Entries != 4 {
		t.Fatalf("entries after torn tail = %d, want 4", st.Entries)
	}
	if _, ok := re.Lookup(digest(3)); !ok {
		t.Error("intact record lost")
	}
	if _, ok := re.Lookup(digest(4)); ok {
		t.Error("torn record resurrected")
	}
}

// TestMidSegmentCorruptionRejected: garbage with valid lines after it is
// not a crash artifact and must fail loudly, not drop data silently.
func TestMidSegmentCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Record(digest(0), fakeResult(0)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	names, _ := LogNames(dir, segPrefix, segSuffix)
	path := filepath.Join(dir, names[0])
	raw, _ := os.ReadFile(path)
	bad := append([]byte("{broken\n"), raw...)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("mid-segment corruption accepted: %v", err)
	}
}

func TestVersionGuard(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, versionFile), []byte("someday v9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Error("foreign store version accepted")
	}
}

// TestConcurrentStoresSameDir is the multi-process cooperation contract:
// two stores share a directory, append concurrently (run under -race),
// and neither loses a result; compaction then preserves every digest.
func TestConcurrentStoresSameDir(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{NoAutoCompact: true})
	b := mustOpen(t, dir, Options{NoAutoCompact: true})

	const n = 100
	var wg sync.WaitGroup
	for w, s := range map[int]*Store{0: a, 1: b} {
		wg.Add(1)
		go func(w int, s *Store) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := s.Record(digest(w*n+i), fakeResult(w*n+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w, s)
	}
	wg.Wait()

	// Each store sees its own appends immediately and the peer's after a
	// refresh.
	for _, s := range []*Store{a, b} {
		if err := s.Refresh(); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Entries != 2*n {
			t.Fatalf("entries after refresh = %d, want %d", st.Entries, 2*n)
		}
	}

	// Compacting while the peer is still live must skip its active
	// segment (flocked) and lose nothing.
	if err := a.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Entries != 2*n {
		t.Fatalf("entries after compact = %d, want %d", st.Entries, 2*n)
	}
	a.Close()
	b.Close()

	re := mustOpen(t, dir, Options{})
	if st := re.Stats(); st.Entries != 2*n {
		t.Fatalf("entries after reopen = %d, want %d", st.Entries, 2*n)
	}
	for i := 0; i < 2*n; i++ {
		if got, ok := re.Lookup(digest(i)); !ok || !reflect.DeepEqual(got, fakeResult(i)) {
			t.Fatalf("digest %d lost across concurrent append + compact", i)
		}
	}
}

// TestCompactionMergesSealedSegments: closed stores leave unlocked
// segments; compaction folds them (plus duplicates) into one file.
func TestCompactionMergesSealedSegments(t *testing.T) {
	dir := t.TempDir()
	for w := 0; w < 4; w++ {
		s := mustOpen(t, dir, Options{NoAutoCompact: true})
		for i := 0; i < 10; i++ {
			// Digest range overlaps across stores: half of every store's
			// records are duplicates to be compacted away.
			if err := s.Record(digest(w*5+i), fakeResult(w*5+i)); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
	}

	s := mustOpen(t, dir, Options{NoAutoCompact: true})
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	names, err := LogNames(dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	// The four sealed segments collapse to one; our own (empty, active)
	// segment remains.
	if len(names) != 2 {
		t.Fatalf("segments after compaction = %v, want compacted + own active", names)
	}
	if st := s.Stats(); st.Entries != 25 || st.GarbageBytes != 0 {
		t.Fatalf("stats after compaction = %+v, want 25 entries, 0 garbage", st)
	}
	for i := 0; i < 25; i++ {
		if _, ok := s.Lookup(digest(i)); !ok {
			t.Fatalf("digest %d lost in compaction", i)
		}
	}
}

// TestAutoCompactionTriggers drives garbage past a tiny threshold and
// expects the background pass to shrink the sealed segments.
func TestAutoCompactionTriggers(t *testing.T) {
	dir := t.TempDir()
	seed := mustOpen(t, dir, Options{NoAutoCompact: true})
	for i := 0; i < 50; i++ {
		if err := seed.Record(digest(i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	seed.Close()

	s := mustOpen(t, dir, Options{CompactGarbageBytes: 1024, RotateBytes: 2048})
	for i := 0; i < 50; i++ { // duplicates: all garbage
		if err := s.Record(digest(i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	s.waitCompactionLocked()
	s.mu.Unlock()
	if st := s.Stats(); st.GarbageBytes >= 1024 && st.Segments > 3 {
		t.Fatalf("auto-compaction never ran: %+v", st)
	}
	for i := 0; i < 50; i++ {
		if _, ok := s.Lookup(digest(i)); !ok {
			t.Fatalf("digest %d lost by auto-compaction", i)
		}
	}
}

// TestRotation seals the active segment once it crosses RotateBytes.
func TestRotation(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{RotateBytes: 512, NoAutoCompact: true})
	for i := 0; i < 20; i++ {
		if err := s.Record(digest(i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("segments = %d, want rotation to have sealed several", st.Segments)
	}
	if st := s.Stats(); st.Entries != 20 {
		t.Fatalf("entries = %d, want 20", st.Entries)
	}
}

// TestHealth: the readiness probe is sticky on write failures and clears
// on the next successful append.
func TestHealth(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Health(); err != nil {
		t.Fatalf("fresh store unhealthy: %v", err)
	}
	if err := s.Record(digest(0), fakeResult(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Health(); err != nil {
		t.Fatalf("healthy store reports %v after a good append", err)
	}

	// Sabotage the active segment so the next append fails.
	s.mu.Lock()
	s.seg.Close()
	s.mu.Unlock()
	if err := s.Record(digest(1), fakeResult(1)); err == nil {
		t.Fatal("append to a closed segment succeeded")
	}
	if err := s.Health(); err == nil {
		t.Fatal("Health is nil after a failed append")
	}

	// Reopening the segment restores writability; the next append clears
	// the sticky error.
	s.mu.Lock()
	err := s.openSegment()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Record(digest(2), fakeResult(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Health(); err != nil {
		t.Fatalf("Health still %v after recovery", err)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Health(); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("closed store Health = %v", err)
	}
}
