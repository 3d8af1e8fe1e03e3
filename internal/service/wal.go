package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"secddr/internal/resultstore"
)

// The sweep WAL makes submitted sweeps durable: every accepted sweep,
// every per-job completion, and every terminal state is appended as one
// NDJSON record to a per-process write-ahead log in the store directory:
// a resultstore.Log, like the store's own segments, so it shares their
// crash discipline (append-only, flocked while owned, a failed append
// truncated away, torn final lines left unread on replay, no fsync —
// process-crash-safe, not power-loss-safe). On boot the server replays
// every WAL file in the directory, reconciles the recorded completions
// against the resultstore, and re-enqueues only the remainder: a
// SIGKILLed server resumes its sweeps with zero lost and zero
// re-executed digests.
//
// Records are never rewritten. A "done" record is appended only after
// the digest's result reached the resultstore, so replay can trust that
// a recorded completion is backed by a stored result (a record whose
// digest the store does not know — possible only if the store segment
// itself lost its tail — is dropped and the job simply re-runs from the
// store-or-execute path). Completion records carry the per-sweep
// sequence number that orders the client-visible result stream, so a
// resumed client's ?after=<seq> cursor stays valid across restarts and
// failovers.

// walRecord is one WAL line. Type selects which fields are meaningful:
//
//	"sweep"  Sweep, Key, Spec            — a sweep was accepted
//	"done"   Sweep, Seq, JobKey, Digest, Cached — one job completed
//	"end"    Sweep, State, Error         — the sweep reached a terminal state
//
// Epoch is the appender's leader-lease epoch (0 for a standalone
// server); when two replicas' logs disagree about one (sweep, seq) or
// one terminal state — possible across a failover with a fenced-off
// zombie still flushing — the higher epoch wins.
type walRecord struct {
	Type   string          `json:"type"`
	Epoch  uint64          `json:"epoch,omitempty"`
	Sweep  string          `json:"sweep"`
	Key    string          `json:"key,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	Seq    int             `json:"seq,omitempty"`
	JobKey string          `json:"job_key,omitempty"`
	Digest string          `json:"digest,omitempty"`
	Cached bool            `json:"cached,omitempty"`
	State  string          `json:"state,omitempty"`
	Error  string          `json:"error,omitempty"`
}

const (
	walSweepRec = "sweep"
	walDoneRec  = "done"
	walEndRec   = "end"
)

// walPrefix/walSuffix frame WAL file names: wal-<pid>-<rand>.wal.
const (
	walPrefix = "wal-"
	walSuffix = ".wal"
)

// WAL is one process's sweep log: its Log (file name, record count,
// Close) plus the leader-lease epoch stamped on every record, which
// fences them against logs written by replicas that held the lease
// before or after this one. Safe for concurrent use.
type WAL struct {
	*resultstore.Log
	epoch uint64
}

// OpenWAL creates a fresh WAL file in dir, the result store directory.
func OpenWAL(dir string, epoch uint64) (*WAL, error) {
	l, err := resultstore.CreateLog(dir, walPrefix, walSuffix)
	if err != nil {
		return nil, fmt.Errorf("service: WAL: %w", err)
	}
	return &WAL{Log: l, epoch: epoch}, nil
}

// Append writes one record. The server logs a failure and keeps running:
// a failed append degrades durability, not the live run.
func (w *WAL) Append(rec walRecord) error {
	rec.Epoch = w.epoch
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("service: encoding WAL record: %w", err)
	}
	_, err = w.Log.Append(line)
	return err
}

// walSweep is one sweep's merged replay state across every WAL file.
type walSweep struct {
	ID   string
	Key  string
	Spec json.RawMessage

	// Done maps seq -> completion record (the epoch-winning one).
	Done map[int]walRecord

	// EndState is "" while the sweep was still open at crash time,
	// otherwise the recorded terminal state (done | failed).
	EndState string
	EndError string
	endEpoch uint64
}

// maxSeq returns the highest recorded completion sequence (0 if none).
func (ws *walSweep) maxSeq() int {
	max := 0
	for seq := range ws.Done { //lint:detrange-ok integer max is order-insensitive
		if seq > max {
			max = seq
		}
	}
	return max
}

// ReplayWAL reads every WAL file in dir (file-name order, so replay is
// deterministic) and merges the records per sweep. It returns the
// merged sweeps and the total record count. skip names one file to
// ignore — the replayer's own freshly created WAL.
//
// Each file is read with resultstore.ScanLines, the segments' torn-tail
// rule: an unterminated or unparsable final line is the write a crash
// interrupted and is not applied; an unparsable line anywhere else,
// blank lines included, is corruption and errors.
func ReplayWAL(dir, skip string) (map[string]*walSweep, int, error) {
	names, err := resultstore.LogNames(dir, walPrefix, walSuffix)
	if err != nil {
		return nil, 0, err
	}
	sweeps := make(map[string]*walSweep)
	total := 0
	for _, name := range names {
		if name == skip {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, 0, fmt.Errorf("service: reading WAL %s: %w", name, err)
		}
		_, err = resultstore.ScanLines(data, func(line []byte) bool {
			var rec walRecord
			if json.Unmarshal(line, &rec) != nil || rec.Sweep == "" {
				return false
			}
			applyRecord(sweeps, rec)
			total++
			return true
		})
		if err != nil {
			return nil, 0, fmt.Errorf("service: WAL %s: %w", name, err)
		}
	}
	return sweeps, total, nil
}

// applyRecord merges one record, resolving duplicates by epoch (higher
// wins; equal epochs keep the first seen, i.e. file-name order).
func applyRecord(sweeps map[string]*walSweep, rec walRecord) {
	ws := sweeps[rec.Sweep]
	if ws == nil {
		ws = &walSweep{ID: rec.Sweep, Done: make(map[int]walRecord)}
		sweeps[rec.Sweep] = ws
	}
	switch rec.Type {
	case walSweepRec:
		if ws.Spec == nil {
			ws.Key, ws.Spec = rec.Key, rec.Spec
		}
	case walDoneRec:
		if prev, dup := ws.Done[rec.Seq]; !dup || rec.Epoch > prev.Epoch {
			ws.Done[rec.Seq] = rec
		}
	case walEndRec:
		if ws.EndState == "" || rec.Epoch > ws.endEpoch {
			ws.EndState, ws.EndError, ws.endEpoch = rec.State, rec.Error, rec.Epoch
		}
	}
	// Unknown types are skipped: a newer server's record kinds must not
	// brick an older replica replaying the shared directory.
}
