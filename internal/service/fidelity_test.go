package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"secddr/internal/sim"
)

func TestFidelitySpecExpansion(t *testing.T) {
	var nilSpec *FidelitySpec
	if fids, err := nilSpec.Fidelities(); err != nil || fids != nil {
		t.Fatalf("nil fidelity spec: got %v, %v; want nil, nil", fids, err)
	}

	fs := &FidelitySpec{
		Modes:        []string{"exact", "sampled"},
		WindowInstr:  500,
		PeriodInstr:  2_000,
		WarmrunInstr: 400,
		CITarget:     0.05,
	}
	fids, err := fs.Fidelities()
	if err != nil {
		t.Fatal(err)
	}
	if len(fids) != 2 {
		t.Fatalf("expanded to %d fidelities, want 2", len(fids))
	}
	if fids[0].Mode != sim.FidelityExact || fids[0].WindowInstr != 0 {
		t.Fatalf("exact entry carries sampling knobs: %+v", fids[0])
	}
	if fids[1].Mode != sim.FidelitySampled || fids[1].WindowInstr != 500 ||
		fids[1].PeriodInstr != 2_000 || fids[1].WarmrunInstr != 400 ||
		fids[1].TargetCI != 0.05 {
		t.Fatalf("sampled entry dropped knobs: %+v", fids[1])
	}

	// Unknown mode names and orphaned knobs are typed rejections, not
	// silent drops.
	for name, bad := range map[string]*FidelitySpec{
		"unknown mode":  {Modes: []string{"sampled-v2"}},
		"orphan knobs":  {WindowInstr: 500},
		"orphan target": {CITarget: 0.05},
	} {
		if _, err := bad.Fidelities(); !errors.Is(err, ErrUnsupportedFidelity) {
			t.Errorf("%s: err = %v, want ErrUnsupportedFidelity", name, err)
		}
	}

	// The same typed error must surface from Grid(), which is what the
	// server's submit path calls.
	sp := tinySpec()
	sp.Fidelity = &FidelitySpec{Modes: []string{"sampled-v2"}}
	if _, err := sp.Grid(); !errors.Is(err, ErrUnsupportedFidelity) {
		t.Fatalf("Grid with unknown fidelity mode: err = %v, want ErrUnsupportedFidelity", err)
	}
}

// TestFidelityUnknownFieldRejected: a fidelity block carrying a field
// this build does not know (sent by a newer client) must be refused with
// the unsupported_fidelity wire code on the submit route — a dropped
// knob would silently alias two different experiments under one digest.
// The keyless POST route is gone: it must answer 405, not run the sweep.
func TestFidelityUnknownFieldRejected(t *testing.T) {
	srv := NewServer(newMemStore(), ServerOptions{Workers: 1})
	srv.runSim = fakeSim
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"modes":["unprotected"],"workloads":["mcf"],"instr_per_core":5000,` +
		`"fidelity":{"modes":["sampled"],"quantum_instr":64}}`

	post, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/sweeps: status %d, want 405", post.StatusCode)
	}

	hr, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/sweeps/fidelity-test-key", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	var ae apiError
	if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
		t.Fatalf("PUT: decoding error body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT: status %d, want 400 (body %+v)", resp.StatusCode, ae)
	}
	if ae.Code != codeUnsupportedFidelity {
		t.Fatalf("PUT: code %q, want %q (%s)", ae.Code, codeUnsupportedFidelity, ae.Error)
	}
	if rebuilt := codeToError(ae.Code, ae.Error, ae.Leader); !errors.Is(rebuilt, ErrUnsupportedFidelity) {
		t.Fatalf("PUT: client-side rebuild %v does not match ErrUnsupportedFidelity", rebuilt)
	}
}

// TestFidelityUnknownModeOverWire: an unknown mode *name* is valid JSON,
// so it passes decoding and fails in Grid(); the client must still get
// an errors.Is-able ErrUnsupportedFidelity back.
func TestFidelityUnknownModeOverWire(t *testing.T) {
	srv := NewServer(newMemStore(), ServerOptions{Workers: 1})
	srv.runSim = fakeSim
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL}

	sp := tinySpec()
	sp.Fidelity = &FidelitySpec{Modes: []string{"sampled-v2"}}
	if _, err := cl.Submit(context.Background(), sp); !errors.Is(err, ErrUnsupportedFidelity) {
		t.Fatalf("Submit: err = %v, want ErrUnsupportedFidelity", err)
	}
	if _, err := cl.SubmitKeyed(context.Background(), "bad-fidelity", sp); !errors.Is(err, ErrUnsupportedFidelity) {
		t.Fatalf("SubmitKeyed: err = %v, want ErrUnsupportedFidelity", err)
	}
}

// TestSpecWithoutFidelityMarshalsAsBefore: specs that do not opt into the
// fidelity axis must serialize byte-identically to pre-fidelity builds,
// so their DefaultKey — and therefore their sweep identity and cache
// lineage — is unchanged by this field existing.
func TestSpecWithoutFidelityMarshalsAsBefore(t *testing.T) {
	raw, err := json.Marshal(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("fidelity")) {
		t.Fatalf("fidelity-free spec leaks a fidelity key: %s", raw)
	}
	key1, err := tinySpec().DefaultKey()
	if err != nil {
		t.Fatal(err)
	}
	sp := tinySpec()
	sp.Fidelity = &FidelitySpec{Modes: []string{"sampled"}}
	key2, err := sp.DefaultKey()
	if err != nil {
		t.Fatal(err)
	}
	if key1 == key2 {
		t.Fatal("sampled spec shares DefaultKey with exact spec")
	}
}

// TestSampledSweepThroughServer runs a real two-fidelity sweep through
// the HTTP API: exact and sampled variants of the same point must land
// as distinct keyed outcomes with distinct digests, and only the sampled
// one carries interval estimates.
func TestSampledSweepThroughServer(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	srv := NewServer(newMemStore(), ServerOptions{Workers: 2})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL}

	seed := uint64(42)
	sp := Spec{
		Modes:        []string{"secddr+ctr"},
		Workloads:    []string{"mcf"},
		InstrPerCore: 30_000,
		WarmupInstr:  5_000,
		Seed:         &seed,
		Fidelity: &FidelitySpec{
			Modes:        []string{"exact", "sampled"},
			WindowInstr:  800,
			PeriodInstr:  4_000,
			WarmrunInstr: 800,
		},
	}
	outcomes, stats, err := cl.RunRemote(context.Background(), sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Total != 2 || len(outcomes) != 2 {
		t.Fatalf("got %d outcomes (stats %+v), want 2", len(outcomes), stats)
	}
	found := map[string]int{}
	digests := map[string]string{}
	for _, o := range outcomes {
		switch o.Key {
		case "mcf/secddr+ctr/exact":
			if o.Result.Estimates != nil {
				t.Errorf("exact outcome carries estimates: %v", o.Result.Estimates)
			}
		case "mcf/secddr+ctr/sampled":
			est, ok := o.Result.Estimates["ipc"]
			if !ok || est.Windows < 2 || est.Mean <= 0 {
				t.Errorf("sampled outcome missing usable ipc estimate: %+v", o.Result.Estimates)
			}
		default:
			t.Errorf("unexpected outcome key %q", o.Key)
		}
		found[o.Key]++
		digests[o.Key] = o.Digest
	}
	if len(found) != 2 {
		t.Fatalf("outcome keys = %v, want exact and sampled", found)
	}
	if digests["mcf/secddr+ctr/exact"] == digests["mcf/secddr+ctr/sampled"] {
		t.Fatal("exact and sampled share a digest; caching would alias them")
	}

	// The same grid under a fresh key must be satisfied entirely from
	// the store — fidelity is part of the digest, so both variants hit.
	_, stats2, err := cl.RunRemoteKeyed(context.Background(), "fidelity-rerun", sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Executed != 0 || stats2.Cached != 2 {
		t.Fatalf("re-submission stats %+v, want all cached", stats2)
	}
}
