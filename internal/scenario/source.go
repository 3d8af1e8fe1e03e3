package scenario

import (
	"fmt"

	"secddr/internal/cpu"
	"secddr/internal/trace"
)

// Source is one core's phase-aware op stream: it executes the core's
// CoreScript, delegating to a per-phase trace.Generator and swapping the
// active one at phase boundaries. Phase position is counted in emitted
// instructions (each Op is op.Gap ALU instructions plus the memory op
// itself), so boundaries are deterministic functions of the stream alone
// and the whole Source is reproducible from (scenario, core, base, seed).
type Source struct {
	script CoreScript
	gens   []*trace.Generator // one per phase, state kept across revisits

	cur     int    // active phase index
	phaseIn uint64 // instructions emitted since entering the phase
	rng     rng    // Markov draws only

	// phaseHook, when set, observes phase transitions: it is called with
	// the outgoing and incoming phase index whenever cur changes. It is
	// per-run instrumentation, not stream state — it never influences the
	// op sequence and is dropped by Clone (forked runs re-register their
	// own).
	phaseHook func(old, new int)
}

var _ cpu.OpSource = (*Source)(nil)

// NewSource builds the op source core executes under s. base is the
// core's physical footprint base (every phase reuses it: the phases are
// one program's address space over time, not co-resident programs); seed
// derives all per-phase generator randomness and the Markov draws. The
// phase generators take their page tables from tables, which may be nil:
// then each shuffles its own.
func NewSource(s Scenario, core int, base, seed uint64, tables *trace.Tables) (*Source, error) {
	if err := s.Validate(0); err != nil {
		return nil, err
	}
	if s.IsZero() {
		return nil, fmt.Errorf("scenario: NewSource on an empty scenario")
	}
	script := s.Script(core)
	src := &Source{
		script: script,
		gens:   make([]*trace.Generator, len(script.Phases)),
		rng:    rng{state: seed ^ 0xd1b54a32d192ed03},
	}
	for i, p := range script.Phases {
		prof, ok := ProfileByName(p.Profile)
		if !ok {
			return nil, fmt.Errorf("scenario %q: unknown profile %q", s.Name, p.Profile)
		}
		// Distinct deterministic seed per phase slot, so two phases running
		// the same profile still draw independent streams.
		g, err := tables.NewGenerator(prof, base, seed+uint64(i+1)*0xa0761d6478bd642f)
		if err != nil {
			return nil, fmt.Errorf("scenario %q phase %d: %w", s.Name, i, err)
		}
		src.gens[i] = g
	}
	return src, nil
}

// Next produces the next memory operation from the active phase, then
// advances the schedule. The stream is endless (the simulator bounds runs
// by retired instructions): a non-looping script parks in its final phase.
func (s *Source) Next() (cpu.Op, bool) {
	op, ok := s.gens[s.cur].Next()
	if !ok {
		return op, false
	}
	s.phaseIn += uint64(op.Gap) + 1
	if s.script.Markov.Enabled() {
		for s.phaseIn >= s.script.Markov.Interval {
			s.phaseIn -= s.script.Markov.Interval
			s.setPhase(s.drawNext(s.cur))
		}
		return op, true
	}
	// Ordered boundaries carry the overshoot into the next phase (an op's
	// Gap can overrun the budget, and with short phases or low-MPKI
	// profiles by a lot), so the realized instruction split tracks the
	// declared schedule; a single long op may even cross several phases.
	for {
		budget := s.script.Phases[s.cur].Instr
		if budget == 0 || s.phaseIn < budget {
			return op, true
		}
		switch {
		case s.cur+1 < len(s.script.Phases):
			s.phaseIn -= budget
			s.setPhase(s.cur + 1)
		case s.script.Loop:
			s.phaseIn -= budget
			s.setPhase(0)
		default:
			// Parked in a bounded final phase of a non-looping script:
			// reset the counter so it stays bounded over an endless run.
			s.phaseIn = 0
			return op, true
		}
	}
}

// drawNext samples the successor phase from the transition row of cur.
func (s *Source) drawNext(cur int) int {
	r := s.rng.float()
	row := s.script.Markov.Transition[cur]
	acc := 0.0
	for i, p := range row {
		acc += p
		if r < acc {
			return i
		}
	}
	return len(row) - 1 // guard against accumulated rounding
}

// setPhase switches the active phase, notifying the hook on real changes
// (a Markov self-transition is not a boundary).
func (s *Source) setPhase(next int) {
	if next == s.cur {
		return
	}
	old := s.cur
	s.cur = next
	if s.phaseHook != nil {
		s.phaseHook(old, next)
	}
}

// SetPhaseHook registers fn to observe phase transitions; nil clears it.
// The hook fires inside Next, i.e. at the fetch of the first op past a
// boundary, synchronously with the op stream.
func (s *Source) SetPhaseHook(fn func(old, new int)) { s.phaseHook = fn }

// Phase returns the active phase index (tests and diagnostics).
func (s *Source) Phase() int { return s.cur }

// VisitHotPages exposes the initial phase's hot set for functional cache
// warmup: measurement starts in phase 0, so steady state at the start of
// the measured region is phase 0's.
func (s *Source) VisitHotPages(fn func(pageAddr uint64)) {
	s.gens[0].VisitHotPages(fn)
}

// rng is splitmix64, matching the trace generator's.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}
