package service

import (
	"secddr/internal/harness"
	"secddr/internal/sim"
)

// Wire types of the worker fleet's leasing protocol. A job's ID on the
// wire is its digest: the queue holds at most one job per digest
// (Enqueue joins repeat requests to the open job), digests are content-addressed, and a
// worker recomputing Options.Digest() can verify what it was handed.
// sim.Options crosses the wire verbatim — it holds only exported value
// types, so a JSON round trip preserves the digest bit-for-bit (see
// TestWireJobRoundTrip).

// LeaseRequest is the POST /v1/jobs/lease body.
type LeaseRequest struct {
	// WorkerID identifies the worker across lease, heartbeat, and ack
	// calls; any stable non-empty string (secddr-worker defaults to
	// host-pid).
	WorkerID string `json:"worker_id"`
	// MaxJobs bounds the batch; <= 0 means 1.
	MaxJobs int `json:"max_jobs,omitempty"`
	// WaitMS long-polls: the server holds the request up to this long
	// waiting for work before answering with an empty batch.
	WaitMS int64 `json:"wait_ms,omitempty"`
	// TTLMS requests a lease duration; the server clamps it to protocol
	// bounds and echoes the granted value.
	TTLMS int64 `json:"ttl_ms,omitempty"`
}

// WireJob is one leased job.
type WireJob struct {
	Digest  string      `json:"digest"`
	Key     string      `json:"key"`
	Options sim.Options `json:"options"`
}

// LeaseResponse is the lease answer. Empty Jobs means the wait elapsed
// with nothing queued — lease again.
type LeaseResponse struct {
	Jobs  []WireJob `json:"jobs"`
	TTLMS int64     `json:"ttl_ms"` // granted lease duration
}

// ResultUpload is the POST /v1/jobs/{digest}/result body: exactly one of
// Result (success) or Error (the simulation failed; deterministic, so
// retrying elsewhere would fail too) must be set.
type ResultUpload struct {
	WorkerID string      `json:"worker_id"`
	Result   *sim.Result `json:"result,omitempty"`
	Error    string      `json:"error,omitempty"`
	// DurationMS, when positive, is the worker-measured wall time of a
	// successful point, from its start (its fork, or its cold run) to its
	// result; the server folds it into its sim-wall histogram. The stock
	// worker reports it on every result, rounded up to a whole
	// millisecond. A shared warmup is part of no point's time. An absent
	// value is not observed.
	DurationMS int64 `json:"duration_ms,omitempty"`
}

// ReleaseRequest is the POST /v1/jobs/{digest}/release body.
type ReleaseRequest struct {
	WorkerID string `json:"worker_id"`
}

// AckResponse answers result and release posts. Accepted=false is not an
// error: the job was already finished or reclaimed and the post was
// idempotently ignored.
type AckResponse struct {
	Accepted bool `json:"accepted"`
}

// HeartbeatRequest is the POST /v1/workers/heartbeat body: the digests
// the worker believes it holds.
type HeartbeatRequest struct {
	WorkerID string   `json:"worker_id"`
	Digests  []string `json:"digests"`
}

// HeartbeatResponse reports how many of the claimed leases were extended;
// fewer than claimed means some were reclaimed (their acks will be
// ignored, the worker may abandon them).
type HeartbeatResponse struct {
	Held int `json:"held"`
}

// StreamItem is one line of the GET /v1/sweeps/{id}/results NDJSON
// stream. Result lines carry a per-sweep sequence number (strictly
// increasing, persisted in the WAL, so it survives restarts and
// failover) plus the embedded outcome; the final line of a finished
// stream is an end sentinel (End=true) carrying the sweep's terminal
// state and stats instead of an outcome. A client resuming with
// ?after=<seq> receives exactly the lines it has not seen.
//
// Sequence numbers are monotone but not necessarily contiguous: a
// completion whose stored result was lost to a crash is dropped on
// replay and its job re-completes under a fresh (higher) seq.
type StreamItem struct {
	Seq int `json:"seq"`
	harness.Outcome
	End   bool           `json:"end,omitempty"`
	State string         `json:"state,omitempty"` // terminal state on end lines: done | failed
	Error string         `json:"error,omitempty"`
	Stats *harness.Stats `json:"stats,omitempty"` // final sweep stats on end lines
}

// streamEnd is the server-side marshal shape of the end sentinel — a
// separate struct so the sentinel line does not drag empty outcome
// fields along.
type streamEnd struct {
	Seq   int           `json:"seq"` // the stream's last result seq
	End   bool          `json:"end"`
	State string        `json:"state"`
	Error string        `json:"error,omitempty"`
	Stats harness.Stats `json:"stats"`
}

// apiError is the JSON body of every non-2xx API answer. Code, when
// present, names a typed failure (see errors.go) that the Client maps
// back to the matching sentinel; Leader is the not_leader redirect hint.
type apiError struct {
	Error  string `json:"error"`
	Code   string `json:"code,omitempty"`
	Leader string `json:"leader,omitempty"`
}
