package sim

import (
	"math"
	"testing"

	"secddr/internal/config"
)

// TestSteadyStateAllocs guards the allocation-free request path: once a
// measured Table 1 mcf run under SecDDR+CTR has warmed in — the MSHR and
// transaction slabs, heaps, queues and maps grown to their working size —
// further spans of core and memory ticks allocate nothing.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	opt := tinyOpt(config.ModeSecDDRCTR, "mcf")
	opt.InstrPerCore = 1_000_000 // a cycle cap far beyond the spans below
	s := warmedSystem(t, opt)
	if err := s.resume(opt); err != nil {
		t.Fatal(err)
	}
	goal := make([]uint64, len(s.cores))
	span := func(instr uint64) {
		for i, c := range s.cores {
			goal[i] = c.Retired + instr
		}
		if err := s.advance(stint{goal: goal, freeze: math.MaxUint64, what: "alloc span"}); err != nil {
			t.Fatal(err)
		}
	}
	span(20_000) // warm-in
	reads := s.engine.ReadsStarted
	allocs := testing.AllocsPerRun(20, func() { span(1_000) })
	if s.engine.ReadsStarted == reads {
		t.Fatal("no DRAM reads during the measured spans; the test exercises nothing")
	}
	if allocs != 0 {
		t.Errorf("steady-state spans allocate %.1f times per 1000 instructions per core, want 0", allocs)
	}
}
