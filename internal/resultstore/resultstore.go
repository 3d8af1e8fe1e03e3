// Package resultstore is the persistence backend behind the campaign
// harness: a concurrent, digest-keyed, on-disk result store.
//
// A store is a directory of append-only NDJSON segment files plus an
// in-memory digest -> result index. Recording a result appends one line to
// the process's own segment under a per-store lock — O(point) bytes per
// flush, so a long sweep writes O(N) bytes in total. Several processes share a directory safely: each
// writes only its own segment, a Log (see log.go), so appends never
// interleave, and Refresh folds peers' segments into the index.
//
// Recovery is crash-safe by construction: a torn final line (crashed or
// mid-write writer) is simply not consumed yet (ScanLines), and is
// re-examined when more bytes arrive. Compaction — threshold-triggered in
// the background, or explicit via Compact — merges every *unlocked* segment (no live
// writer) into one, dropping duplicate digests; a segment whose writer is
// alive is skipped, so no result is ever lost. Duplicates are harmless
// whenever they occur (equal digests imply identical results; see
// sim.Options.Digest), which is what makes every race here benign.
//
// The store satisfies harness.Store.
package resultstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"secddr/internal/flock"
	"secddr/internal/sim"
)

// versionFile names the format marker inside a store directory.
const versionFile = "VERSION"

// versionTag is its required content; bump on breaking format changes.
const versionTag = "secddr-resultstore v1\n"

// segPrefix/segSuffix frame segment file names: seg-<unique>.ndjson.
const (
	segPrefix = "seg-"
	segSuffix = ".ndjson"
)

// record is one NDJSON line.
type record struct {
	Digest string     `json:"digest"`
	Result sim.Result `json:"result"`
}

// Options tunes a store. The zero value is production-ready.
type Options struct {
	// CompactGarbageBytes triggers background compaction once the bytes
	// held by duplicate records exceed it. <= 0 means 1 MiB.
	CompactGarbageBytes int64
	// RotateBytes seals the store's own segment and starts a fresh one
	// once it exceeds this size, making the old one eligible for
	// compaction. <= 0 means 8 MiB.
	RotateBytes int64
	// NoAutoCompact disables the background trigger; Compact still works.
	NoAutoCompact bool
}

func (o Options) withDefaults() Options {
	if o.CompactGarbageBytes <= 0 {
		o.CompactGarbageBytes = 1 << 20
	}
	if o.RotateBytes <= 0 {
		o.RotateBytes = 8 << 20
	}
	return o
}

// Store is an open result store. It is safe for concurrent use.
type Store struct {
	dir string
	opt Options

	mu    sync.Mutex
	index map[string]sim.Result
	// seen tracks every segment this store has scanned (or sealed), so
	// refreshes resume where the previous scan stopped and a torn tail is
	// retried, not skipped. Garbage is accounted per segment so compacting
	// some segments never erases the garbage tally of the rest.
	seen map[string]*segInfo

	seg        *Log  // own active segment
	ownGarbage int64 // duplicate bytes in the own active segment

	totalBytes int64 // all segment bytes known to this store

	compacting  bool
	compactDone chan struct{} // non-nil while compacting; closed at end
	sealed      uint64        // own segments sealed by rotation so far
	closed      bool

	// lastWriteErr is the sticky outcome of the most recent append: set on
	// a failed Record, cleared by the next successful one. Health serves it
	// to readiness probes so a server whose disk went away reports degraded
	// instead of silently failing every sweep.
	lastWriteErr error
}

// segInfo is this store's view of one segment it does not own.
type segInfo struct {
	consumed int64 // bytes folded into the index
	garbage  int64 // bytes of records whose digest was already indexed
}

// Dir is the store's directory. The campaign service keeps its sweep WAL
// there, a Log like each segment, and its leader lease.
func (s *Store) Dir() string { return s.dir }

// StoreStats is a point-in-time size summary (served by /metrics).
type StoreStats struct {
	Entries      int   `json:"entries"`
	Segments     int   `json:"segments"`
	DiskBytes    int64 `json:"disk_bytes"`
	GarbageBytes int64 `json:"garbage_bytes"`
}

// Open opens (creating if needed) the store directory and loads every
// segment into the index. A torn final line in any segment — a writer
// crashed mid-append — is tolerated and left unconsumed.
func Open(dir string, opt Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	if err := checkVersion(dir); err != nil {
		return nil, err
	}
	s := &Store{
		dir:   dir,
		opt:   opt.withDefaults(),
		index: make(map[string]sim.Result),
		seen:  make(map[string]*segInfo),
	}
	if err := s.openSegment(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.scanLocked(); err != nil {
		s.seg.Close()
		return nil, err
	}
	return s, nil
}

// checkVersion creates or validates the directory's format marker.
func checkVersion(dir string) error {
	path := filepath.Join(dir, versionFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err == nil {
		_, werr := f.WriteString(versionTag)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("resultstore: writing %s: %w", path, werr)
		}
		return nil
	}
	if !os.IsExist(err) {
		return fmt.Errorf("resultstore: %w", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if string(raw) != versionTag {
		return fmt.Errorf("resultstore: %s is not a v1 store (%s = %q; delete the directory to start fresh)",
			dir, versionFile, strings.TrimSpace(string(raw)))
	}
	return nil
}

// openSegment creates this store's own active segment.
func (s *Store) openSegment() error {
	seg, err := CreateLog(s.dir, segPrefix, segSuffix)
	if err != nil {
		return err
	}
	s.seg = seg
	return nil
}

// Lookup returns the recorded result for a digest, if present. It serves
// the in-memory index; call Refresh to fold in peers' recent appends.
func (s *Store) Lookup(digest string) (sim.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.index[digest]
	return res, ok
}

// Record appends one result to the store's own segment — O(point) bytes,
// one buffered line, no table rewrite — and indexes it. Appending a digest
// the index already holds is allowed (it grows garbage, later compacted).
func (s *Store) Record(digest string, res sim.Result) error {
	line, err := json.Marshal(record{Digest: digest, Result: res})
	if err != nil {
		return fmt.Errorf("resultstore: encoding record: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("resultstore: store is closed")
	}
	n, err := s.seg.Append(line)
	if err != nil {
		s.lastWriteErr = err
		return err
	}
	s.totalBytes += n
	if _, dup := s.index[digest]; dup {
		s.ownGarbage += n
	} else {
		s.index[digest] = res
	}
	if s.seg.Size() >= s.opt.RotateBytes {
		if err := s.rotateLocked(); err != nil {
			s.lastWriteErr = err
			return err
		}
	}
	s.maybeCompactLocked()
	s.lastWriteErr = nil
	return nil
}

// Health reports the store's writability for readiness probes: nil while
// the store is open and its most recent append succeeded, otherwise the
// sticky error from the failed write (or the closed state). A store that
// has never recorded anything is healthy.
func (s *Store) Health() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("resultstore: store is closed")
	}
	return s.lastWriteErr
}

// rotateLocked seals the own segment (releasing its flock, so compaction
// may claim it) and opens a fresh one.
func (s *Store) rotateLocked() error {
	if err := s.seg.Close(); err != nil {
		return err
	}
	s.seen[s.seg.Name()] = &segInfo{consumed: s.seg.Size(), garbage: s.ownGarbage}
	s.ownGarbage = 0
	s.sealed++
	return s.openSegment()
}

// Refresh folds in records that other stores sharing the directory have
// appended since the last scan. Partially-written tails stay pending.
func (s *Store) Refresh() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scanLocked()
}

// scanLocked reads every foreign segment forward from its consumed offset.
func (s *Store) scanLocked() error {
	names, err := LogNames(s.dir, segPrefix, segSuffix)
	if err != nil {
		return err
	}
	present := make(map[string]bool, len(names))
	for _, name := range names {
		present[name] = true
		if name == s.seg.Name() {
			continue
		}
		if err := s.consumeLocked(name); err != nil {
			return err
		}
	}
	// Segments a peer's compaction removed: their records live on in the
	// compacted segment (scanned above), so just forget the old names.
	for name, info := range s.seen {
		if !present[name] {
			delete(s.seen, name)
			s.totalBytes -= info.consumed
		}
	}
	return nil
}

// garbageLocked totals the duplicate bytes across every known segment.
func (s *Store) garbageLocked() int64 {
	g := s.ownGarbage
	for _, info := range s.seen {
		g += info.garbage
	}
	return g
}

// consumeLocked indexes any new complete lines of one segment.
func (s *Store) consumeLocked(name string) error {
	info := s.seen[name]
	if info == nil {
		info = &segInfo{}
		s.seen[name] = info
	}
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil // compacted away between list and open
		}
		return fmt.Errorf("resultstore: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if fi.Size() <= info.consumed {
		return nil
	}
	raw := make([]byte, fi.Size()-info.consumed)
	if _, err := f.ReadAt(raw, info.consumed); err != nil {
		return fmt.Errorf("resultstore: reading %s: %w", name, err)
	}
	// A torn tail is left for a later scan; a record already indexed is
	// garbage.
	var garbage int64
	consumed, err := ScanLines(raw, func(line []byte) bool {
		var rec record
		if json.Unmarshal(line, &rec) != nil || rec.Digest == "" {
			return false
		}
		if _, dup := s.index[rec.Digest]; dup {
			garbage += int64(len(line) + 1)
		} else {
			s.index[rec.Digest] = rec.Result
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("resultstore: segment %s at offset %d: %w", name, info.consumed+int64(consumed), err)
	}
	info.consumed += int64(consumed)
	info.garbage += garbage
	s.totalBytes += int64(consumed)
	return nil
}

// maybeCompactLocked starts a background compaction when garbage crosses
// the threshold. At most one compaction runs per store at a time, so a
// Record that seals garbage while a pass runs triggers nothing: the pass
// re-checks the threshold before it ends, but only if segments were sealed
// meanwhile — the garbage a pass leaves otherwise (the active segment, live
// peers' segments) cannot be compacted, and re-running would spin.
func (s *Store) maybeCompactLocked() {
	if s.opt.NoAutoCompact || s.compacting || s.garbageLocked() < s.opt.CompactGarbageBytes {
		return
	}
	done := make(chan struct{})
	s.compacting, s.compactDone = true, done
	sealed := s.sealed
	go func() {
		for {
			s.compact()
			s.mu.Lock()
			if s.sealed == sealed || s.closed || s.garbageLocked() < s.opt.CompactGarbageBytes {
				s.finishCompactionLocked(done)
				s.mu.Unlock()
				return
			}
			sealed = s.sealed
			s.mu.Unlock()
		}
	}()
}

// finishCompactionLocked clears the compacting flag and wakes the waiters.
// (A plain channel, not a WaitGroup: re-arming a WaitGroup from zero
// while a waiter is mid-Wait is documented misuse and can panic.)
func (s *Store) finishCompactionLocked(done chan struct{}) {
	s.compacting, s.compactDone = false, nil
	close(done)
}

// waitCompactionLocked blocks (releasing the lock while waiting) until no
// compaction is running; the caller reacquires the usual invariants.
func (s *Store) waitCompactionLocked() {
	for s.compacting {
		done := s.compactDone
		s.mu.Unlock()
		<-done
		s.mu.Lock()
	}
}

// Compact synchronously merges every segment without a live writer into
// one, dropping duplicate digests. Segments still flocked by an active
// store (including this store's own) are left untouched, so concurrent
// writers never lose a byte. Safe to call any time.
func (s *Store) Compact() error {
	s.mu.Lock()
	s.waitCompactionLocked() // serialize with a background pass
	done := make(chan struct{})
	s.compacting, s.compactDone = true, done
	s.mu.Unlock()
	err := s.compact()
	s.mu.Lock()
	s.finishCompactionLocked(done)
	s.mu.Unlock()
	return err
}

// compact does the work; it must run with s.compacting held true.
func (s *Store) compact() error {
	s.mu.Lock()
	own := s.seg.Name()
	s.mu.Unlock()

	names, err := LogNames(s.dir, segPrefix, segSuffix)
	if err != nil {
		return err
	}

	// Claim every compactable segment: not ours, and no live writer (the
	// non-blocking flock fails exactly when its owner is still alive).
	type claimed struct {
		name string
		f    *os.File
		size int64
	}
	var claims []claimed
	release := func() {
		for _, c := range claims {
			c.f.Close()
		}
	}
	for _, name := range names {
		if name == own {
			continue
		}
		f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_RDWR, 0)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			release()
			return fmt.Errorf("resultstore: %w", err)
		}
		ok, err := flock.TryLock(f)
		if err != nil || !ok {
			f.Close()
			if err != nil {
				release()
				return err
			}
			continue
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			release()
			return fmt.Errorf("resultstore: %w", err)
		}
		claims = append(claims, claimed{name: name, f: f, size: fi.Size()})
	}
	if len(claims) == 0 {
		return nil
	}

	// Merge the claimed segments. Duplicate digests collapse; a torn tail
	// (its writer crashed — the lock was free) is dropped for good here,
	// which is the documented crash-recovery contract.
	merged := make(map[string]json.RawMessage)
	order := []string{} // first-seen order keeps compaction deterministic
	for _, c := range claims {
		raw := make([]byte, c.size)
		if _, err := c.f.ReadAt(raw, 0); err != nil {
			release()
			return fmt.Errorf("resultstore: reading %s: %w", c.name, err)
		}
		_, err := ScanLines(raw, func(line []byte) bool {
			var rec struct {
				Digest string          `json:"digest"`
				Result json.RawMessage `json:"result"`
			}
			if json.Unmarshal(line, &rec) != nil || rec.Digest == "" {
				return false
			}
			if _, dup := merged[rec.Digest]; !dup {
				merged[rec.Digest] = rec.Result
				order = append(order, rec.Digest)
			}
			return true
		})
		if err != nil {
			release()
			return fmt.Errorf("resultstore: segment %s: %w", c.name, err)
		}
	}

	// Publish the replacement segment before removing the claimed ones: a
	// crash leaves either the old segments or both, never less than the
	// union.
	var buf bytes.Buffer
	for _, d := range order {
		buf.WriteString(`{"digest":"` + d + `","result":`)
		buf.Write(merged[d])
		buf.WriteString("}\n")
	}
	newName := logName(segPrefix, segSuffix)
	if err := ReplaceFile(s.dir, newName, buf.Bytes(), true); err != nil {
		release()
		return err
	}
	for _, c := range claims {
		os.Remove(filepath.Join(s.dir, c.name)) // safe: we hold its flock
	}
	release()

	// Fold the outcome into our accounting. The merged map is folded into
	// the index directly (it may hold claimed lines we had not refreshed
	// yet) and the new segment marked consumed with zero garbage —
	// rescanning it would misclassify its records, already indexed, as
	// garbage. Only the claimed segments' garbage tallies disappear;
	// duplicates still sitting in the own active segment or in skipped
	// (live-writer) segments stay counted for the next trigger.
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range claims {
		if info, ok := s.seen[c.name]; ok {
			delete(s.seen, c.name)
			s.totalBytes -= info.consumed
		}
	}
	for _, d := range order {
		if _, ok := s.index[d]; !ok {
			var res sim.Result
			if json.Unmarshal(merged[d], &res) == nil {
				s.index[d] = res
			}
		}
	}
	s.seen[newName] = &segInfo{consumed: int64(buf.Len())}
	s.totalBytes += int64(buf.Len())
	return nil
}

// Stats reports current size figures for monitoring.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs := len(s.seen)
	if !s.closed {
		segs++
	}
	return StoreStats{
		Entries:      len(s.index),
		Segments:     segs,
		DiskBytes:    s.totalBytes,
		GarbageBytes: s.garbageLocked(),
	}
}

// Close waits for any background compaction, seals the store's segment
// and releases its flock (making it compactable by surviving peers). An
// empty own segment is removed rather than left as clutter.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.waitCompactionLocked()

	err := s.seg.Close()
	if s.seg.Size() > 0 {
		s.seen[s.seg.Name()] = &segInfo{consumed: s.seg.Size(), garbage: s.ownGarbage}
		s.ownGarbage = 0
	}
	return err
}
