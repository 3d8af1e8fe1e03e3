package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"secddr/internal/harness"
)

// Client talks to a secddr-serve instance. The zero HTTPClient means
// http.DefaultClient; BaseURL is e.g. "http://127.0.0.1:8080".
type Client struct {
	BaseURL    string
	HTTPClient *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.BaseURL, "/") + path
}

// decodeError surfaces the server's apiError body on non-2xx, mapping
// wire codes back to the typed sentinels — errors.Is(err,
// ErrQuotaExceeded) etc. work on the client side of the wire.
func decodeError(resp *http.Response) error {
	defer resp.Body.Close()
	var e apiError
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e) == nil && e.Error != "" {
		if terr := codeToError(e.Code, e.Error, e.Leader); terr != nil {
			return terr
		}
		return fmt.Errorf("service: server: %s (HTTP %d)", e.Error, resp.StatusCode)
	}
	return fmt.Errorf("service: server returned HTTP %d", resp.StatusCode)
}

// do sends a method request to path, with body JSON-encoded (nil: no
// body), and decodes a 200/202 JSON answer into out (nil: discarded).
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("service: encoding %s request: %w", path, err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return fmt.Errorf("service: %s %s: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return decodeError(resp)
	}
	defer resp.Body.Close()
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("service: decoding %s response: %w", path, err)
	}
	return nil
}

// Lease asks the server for a batch of jobs (see LeaseRequest). An empty
// batch with a nil error means the long-poll elapsed idle.
func (c *Client) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	var resp LeaseResponse
	err := c.do(ctx, http.MethodPost, "/v1/jobs/lease", req, &resp)
	return resp, err
}

// PostResult acks one leased digest with its result or error. A false
// return with nil error means the server idempotently ignored the upload
// (double ack or reclaimed lease).
func (c *Client) PostResult(ctx context.Context, digest string, up ResultUpload) (bool, error) {
	var ack AckResponse
	err := c.do(ctx, http.MethodPost, "/v1/jobs/"+digest+"/result", up, &ack)
	return ack.Accepted, err
}

// Release returns an unrun lease to the queue.
func (c *Client) Release(ctx context.Context, digest, workerID string) (bool, error) {
	var ack AckResponse
	err := c.do(ctx, http.MethodPost, "/v1/jobs/"+digest+"/release", ReleaseRequest{WorkerID: workerID}, &ack)
	return ack.Accepted, err
}

// Heartbeat extends the worker's leases on the given digests.
func (c *Client) Heartbeat(ctx context.Context, workerID string, digests []string) (int, error) {
	var resp HeartbeatResponse
	err := c.do(ctx, http.MethodPost, "/v1/workers/heartbeat", HeartbeatRequest{WorkerID: workerID, Digests: digests}, &resp)
	return resp.Held, err
}

// SubmitKeyed registers a sweep under a client-chosen key — the
// idempotent submission path (PUT /v1/sweeps/{key}). Submitting the same
// (key, spec) pair again attaches to the existing sweep (Attached=true
// in the response) instead of starting a duplicate, which is what makes
// retry-after-anything safe: a client that crashed, timed out, or raced
// a server restart just submits again and lands on the same sweep ID.
func (c *Client) SubmitKeyed(ctx context.Context, key string, spec Spec) (SubmitResponse, error) {
	if err := validateSweepKey(key); err != nil {
		return SubmitResponse{}, err
	}
	var sub SubmitResponse
	err := c.do(ctx, http.MethodPut, "/v1/sweeps/"+key, spec, &sub)
	return sub, err
}

// Status fetches a sweep's progress.
func (c *Client) Status(ctx context.Context, id string) (SweepStatus, error) {
	var st SweepStatus
	err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+id, nil, &st)
	return st, err
}

// streamOnce consumes one results connection from the cursor, invoking fn
// per line and advancing *cursor past every delivered seq. It returns
// (ended, err): ended=true means the end sentinel arrived and the stream
// is complete.
func (c *Client) streamOnce(ctx context.Context, id string, cursor *int, fn func(StreamItem) error) (bool, error) {
	url := c.url("/v1/sweeps/" + id + "/results")
	if *cursor > 0 {
		url += "?after=" + strconv.Itoa(*cursor)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return false, fmt.Errorf("service: streaming results: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return false, decodeError(resp)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var item StreamItem
		if err := json.Unmarshal(line, &item); err != nil {
			return false, fmt.Errorf("service: corrupt result line: %w", err)
		}
		if item.Seq > *cursor {
			*cursor = item.Seq
		}
		if err := fn(item); err != nil {
			return false, err
		}
		if item.End {
			return true, nil
		}
	}
	if err := sc.Err(); err != nil {
		return false, fmt.Errorf("service: result stream: %w", err)
	}
	// EOF without the end sentinel: the connection died (server restart,
	// proxy cut, network blip) — resume from the cursor.
	return false, nil
}

// StreamResults consumes the sweep's NDJSON result stream, invoking fn
// on every line — result items as the server completes them, then the
// end sentinel (End=true) carrying the terminal state and final stats.
// It survives connection loss: the client tracks the last delivered
// sequence number and reconnects with ?after=<cursor>, so across server
// restarts and replica failovers fn sees every result exactly once and
// the reassembled set is byte-identical to an uninterrupted stream.
//
// It returns once the end sentinel has been delivered, fn errors, the
// sweep is unknown to the server (ErrUnknownSweep — a recovery-skipped
// sweep; re-submit the keyed spec and stream the fresh sweep), or ctx
// ends.
func (c *Client) StreamResults(ctx context.Context, id string, fn func(StreamItem) error) error {
	cursor := 0
	backoff := 250 * time.Millisecond
	for {
		ended, err := c.streamOnce(ctx, id, &cursor, fn)
		if ended {
			return nil
		}
		if err != nil {
			// fn's own errors and "this sweep does not exist" are final;
			// transport-level failures retry from the cursor.
			if errors.Is(err, ErrUnknownSweep) || ctx.Err() != nil {
				return err
			}
			var transient bool
			switch {
			case errors.Is(err, ErrNotLeader), errors.Is(err, ErrShuttingDown):
				transient = true // a (re)starting or demoted server; retry lands on the leader
			default:
				var ne interface{ Temporary() bool }
				transient = errors.As(err, &ne) || strings.Contains(err.Error(), "connect") ||
					strings.Contains(err.Error(), "EOF") || strings.Contains(err.Error(), "reset")
			}
			if !transient {
				return err
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff < 4*time.Second {
			backoff *= 2
		}
	}
}

// RunRemoteKeyed submits a spec under key and blocks until the sweep
// completes, returning outcomes in the deterministic local job order
// (the same order a local run emits, so -server mode is a drop-in for
// the file emitters) plus the server-side stats from the stream's end
// sentinel. It is the engine behind secddr-sweep -server.
//
// The whole call is safe to re-run: submission is idempotent (same key,
// same sweep), the result stream resumes from a cursor across connection
// loss, and if a restarted server lost the sweep entirely (no WAL) the
// keyed re-submit starts it over with every already-stored digest served
// from cache.
func (c *Client) RunRemoteKeyed(ctx context.Context, key string, spec Spec, progress func(done, total int)) ([]harness.Outcome, harness.Stats, error) {
	grid, err := spec.Grid()
	if err != nil {
		return nil, harness.Stats{}, err
	}
	jobs := grid.Jobs()

	byKey := make(map[string]harness.Outcome, len(jobs))
	var final *streamEnd
	for attempt := 0; ; attempt++ {
		sub, err := c.SubmitKeyed(ctx, key, spec)
		if err != nil {
			return nil, harness.Stats{}, err
		}
		if sub.Total != len(jobs) {
			return nil, harness.Stats{}, fmt.Errorf("service: server expanded %d jobs, client %d — version skew?", sub.Total, len(jobs))
		}

		err = c.StreamResults(ctx, sub.ID, func(item StreamItem) error {
			if item.End {
				end := streamEnd{Seq: item.Seq, State: item.State, Error: item.Error}
				if item.Stats != nil {
					end.Stats = *item.Stats
				}
				final = &end
				return nil
			}
			if _, dup := byKey[item.Key]; !dup {
				byKey[item.Key] = item.Outcome
				if progress != nil {
					progress(len(byKey), sub.Total)
				}
			}
			return nil
		})
		if err == nil && final != nil {
			break
		}
		// The only retryable landing spot: the server no longer knows the
		// sweep (restarted without its WAL record). One keyed re-submit
		// starts it over; stored digests replay as cache hits.
		if errors.Is(err, ErrUnknownSweep) && attempt == 0 {
			continue
		}
		if err == nil {
			err = fmt.Errorf("service: result stream closed without end sentinel")
		}
		return nil, harness.Stats{}, err
	}

	if final.State != string(stateDone) {
		return nil, final.Stats, fmt.Errorf("service: sweep %s: %s", final.State, final.Error)
	}
	outs := make([]harness.Outcome, len(jobs))
	for i, j := range jobs {
		o, ok := byKey[j.Key]
		if !ok {
			return nil, final.Stats, fmt.Errorf("service: server returned no outcome for %q", j.Key)
		}
		outs[i] = o
	}
	return outs, final.Stats, nil
}
