package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"secddr/internal/resultstore"
	"secddr/internal/service"
	"secddr/internal/sim"
)

// span is one timed call across a layer boundary. Spans of one sweep share
// a trace id; Parent links a span to the span that caused it (0: a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the time child spans cover
	Count  int    `json:"count,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; write stores them once, at the end of a
// run. A nil recorder records nothing, so untraced code paths call it
// unconditionally.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// active is an open span; end closes it. The zero value (from a nil
// recorder) is inert.
type active struct {
	r *recorder
	s span
}

func (r *recorder) begin(trace, name string, parent int64) active {
	if r == nil {
		return active{}
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return active{r: r, s: span{ID: id, Parent: parent, Trace: trace, Name: name, Start: int64(time.Since(r.epoch))}}
}

// spanCtx is where new spans go: a recorder (nil: untraced), the trace
// id (the sweep key), and the parent span.
type spanCtx struct {
	rec  *recorder
	id   string
	root int64
}

func (c spanCtx) begin(name string) active { return c.rec.begin(c.id, name, c.root) }

// child returns a context whose spans hang under a.
func (c spanCtx) child(a active) spanCtx { return spanCtx{rec: c.rec, id: c.id, root: a.s.ID} }

// ctxSlot holds the spanCtx of a hook that other goroutines call (a
// transport, a store wrapper), so that it can be switched between calls.
type ctxSlot struct{ p atomic.Pointer[spanCtx] }

func (s *ctxSlot) get() spanCtx {
	if p := s.p.Load(); p != nil {
		return *p
	}
	return spanCtx{}
}

func (s *ctxSlot) set(sc spanCtx) { s.p.Store(&sc) }

// end closes the span and returns its duration.
func (a active) end() time.Duration { return a.endCount(0) }

// endCount closes the span, attaching a count of items it handled.
func (a active) endCount(n int) time.Duration {
	if a.r == nil {
		return 0
	}
	a.s.End = int64(time.Since(a.r.epoch))
	a.s.Count = n
	a.r.mu.Lock()
	a.r.spans = append(a.r.spans, a.s)
	a.r.mu.Unlock()
	return a.s.dur()
}

// named returns the closed spans with the given name, in end order.
func (r *recorder) named(name string) []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the named spans in the given unit.
func (r *recorder) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range r.named(name) {
		out = append(out, float64(s.dur())/float64(unit))
	}
	return out
}

// write fills in every span's self time and stores all spans as one JSON
// array at path.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		spans[i].Self = int64(spans[i].dur()) - covered(spans[i], children[spans[i].ID])
	}
	raw, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// covered is the length of the union of the children's intervals clipped
// to the parent's; kids are sorted by start.
func covered(parent span, kids []span) int64 {
	var total, reach int64 = 0, parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, reach), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total
}

// transport is the http.RoundTripper on every service.Client the
// benchmark builds. It always reports the first lease request (the fleet
// worker's attach, which ends set-up); with a recorder it also records one
// span per request, from send until the response body is closed, and
// counts the jobs in each lease answer.
type transport struct {
	base *http.Transport
	sc   ctxSlot

	leased   chan struct{} // closed when the first lease request is sent
	leaseOne sync.Once
}

func newTransport(sc spanCtx) *transport {
	t := &transport{base: &http.Transport{}, leased: make(chan struct{})}
	t.sc.set(sc)
	return t
}

// route names a request by method and path, with sweep keys, sweep ids and
// job digests elided so repeated calls share a span name.
func route(req *http.Request) string {
	p := req.URL.Path
	switch {
	case strings.HasPrefix(p, "/v1/jobs/") && strings.HasSuffix(p, "/result"):
		p = "/v1/jobs/{digest}/result"
	case strings.HasPrefix(p, "/v1/jobs/") && strings.HasSuffix(p, "/release"):
		p = "/v1/jobs/{digest}/release"
	case strings.HasPrefix(p, "/v1/sweeps/") && strings.HasSuffix(p, "/results"):
		p = "/v1/sweeps/{id}/results"
	case strings.HasPrefix(p, "/v1/sweeps/"):
		p = "/v1/sweeps/{key}"
	}
	return "http " + req.Method + " " + p
}

const leaseRoute = "http POST /v1/jobs/lease"

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := route(req)
	if name == leaseRoute {
		t.leaseOne.Do(func() { close(t.leased) })
	}
	sc := t.sc.get()
	sp := sc.begin(name)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	if sc.rec != nil {
		resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp, lease: name == leaseRoute}
	}
	return resp, nil
}

// spanBody ends its request's span when the client closes the body; for
// lease answers it keeps the bytes to count the jobs handed out.
type spanBody struct {
	io.ReadCloser
	sp    active
	lease bool
	buf   bytes.Buffer
	once  sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.lease {
		b.buf.Write(p[:n])
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		jobs := 0
		if b.lease {
			var lr service.LeaseResponse
			if json.Unmarshal(b.buf.Bytes(), &lr) == nil {
				jobs = len(lr.Jobs)
			}
		}
		b.sp.endCount(jobs)
	})
	return err
}

// timedStore is the harness.Store the traced run puts in front of the
// result store: one span per Lookup and Record. Embedding keeps the
// store's other methods (Refresh, Dir) visible to the service replica.
type timedStore struct {
	*resultstore.Store
	sc ctxSlot
}

func (s *timedStore) Lookup(digest string) (sim.Result, bool) {
	sp := s.sc.get().begin("resultstore.Lookup")
	defer sp.end()
	return s.Store.Lookup(digest)
}

func (s *timedStore) Record(digest string, res sim.Result) error {
	sp := s.sc.get().begin("resultstore.Record")
	defer sp.end()
	return s.Store.Record(digest, res)
}
