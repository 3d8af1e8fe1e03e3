package resultstore

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"secddr/internal/flock"
)

// The store directory's file layer. Every append-only file in a store
// directory — the result segments and the campaign service's sweep WAL —
// is a Log, read back through ScanLines; every whole-file rewrite (the
// compacted segment, the leader lease) goes through ReplaceFile. Nothing
// is fsynced on append: a Log is process-crash-safe, not power-loss-safe.

// Log is one process's append-only NDJSON file in a store directory:
// created O_EXCL|O_APPEND under a unique name and held under an exclusive
// flock until Close, so no other writer ever appends to it and a peer can
// tell it from an abandoned file (whose lock is free). Safe for
// concurrent use.
type Log struct {
	dir, name string

	mu    sync.Mutex
	f     *os.File // nil once closed
	size  int64    // bytes of complete lines
	lines int64
	// broken is sticky: a failed write whose torn bytes could not be
	// truncated away. Appending after them would bury the tear mid-file,
	// which readers reject as corruption, so the log refuses.
	broken error
}

// CreateLog creates and flocks a fresh log file in dir, named
// <prefix><pid>-<rand><suffix>.
func CreateLog(dir, prefix, suffix string) (*Log, error) {
	name := logName(prefix, suffix)
	path := filepath.Join(dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultstore: creating %s: %w", name, err)
	}
	if err := flock.LockFile(f); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	return &Log{dir: dir, name: name, f: f}, nil
}

// logName returns a collision-free file name: pid plus a random suffix.
func logName(prefix, suffix string) string {
	var b [8]byte
	rand.Read(b[:])
	return fmt.Sprintf("%s%d-%s%s", prefix, os.Getpid(), hex.EncodeToString(b[:]), suffix)
}

// Dir is the directory the log lives in.
func (l *Log) Dir() string { return l.dir }

// Name is the log's file name within Dir.
func (l *Log) Name() string { return l.name }

// Append writes line (one JSON value, as json.Marshal encodes it) plus a
// newline in a single write and returns the bytes it added. A write that
// fails is truncated back to the last complete line, so a later append
// never lands behind torn bytes.
func (l *Log) Append(line []byte) (int64, error) {
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.f == nil:
		return 0, fmt.Errorf("resultstore: %s is closed", l.name)
	case l.broken != nil:
		return 0, l.broken
	}
	if _, err := l.f.Write(line); err != nil {
		err = fmt.Errorf("resultstore: appending to %s: %w", l.name, err)
		if terr := l.f.Truncate(l.size); terr != nil {
			l.broken = fmt.Errorf("%w; truncating the torn line: %v", err, terr)
			return 0, l.broken
		}
		return 0, err
	}
	n := int64(len(line))
	l.size += n
	l.lines++
	return n, nil
}

// Size is the log's length in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Lines is how many lines this log has appended.
func (l *Log) Lines() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lines
}

// Close releases the flock, sealing the file for readers and compaction.
// A log that never appended a line is removed: it carries nothing, and
// would otherwise leave one empty file per process.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	if l.lines == 0 {
		os.Remove(filepath.Join(l.dir, l.name))
	}
	return err
}

// LogNames lists dir's <prefix>*<suffix> files in name order.
func LogNames(dir, prefix, suffix string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && len(name) > len(prefix)+len(suffix) &&
			strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// ScanLines is the one torn-tail rule for every log: it passes each
// complete line of raw (without its newline) to fn and returns how many
// bytes it consumed. An unterminated final line, or a final line fn
// rejects, is the torn tail of an append a crash or an in-flight write
// cut short, and stays unconsumed. A rejected line with complete lines
// after it is corruption: the error names it, and consumed is its offset.
func ScanLines(raw []byte, fn func(line []byte) bool) (consumed int, err error) {
	for {
		nl := bytes.IndexByte(raw[consumed:], '\n')
		if nl < 0 {
			return consumed, nil
		}
		line := raw[consumed : consumed+nl]
		if !fn(line) {
			if consumed+nl+1 == len(raw) {
				return consumed, nil
			}
			return consumed, fmt.Errorf("corrupt record %q", truncate(line))
		}
		consumed += nl + 1
	}
}

func truncate(b []byte) string {
	const max = 60
	if len(b) <= max {
		return string(b)
	}
	return string(b[:max]) + "..."
}

// ReplaceFile publishes data as dir/name through a temp file and a rename,
// so readers and crashes see the old file or the new one whole. durable
// syncs the temp file first, so the new file also survives a power loss:
// a compacted segment needs that, being the only copy of what it merged
// once the originals are removed. The leader lease does not: its holders
// die with the machine, and the sync would double a replica's start-up.
func ReplaceFile(dir, name string, data []byte, durable bool) error {
	tmp, err := os.CreateTemp(dir, "."+name+".tmp-*")
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if _, err = tmp.Write(data); err == nil && durable {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: replacing %s: %w", name, err)
	}
	return nil
}
