package sim

import (
	"fmt"
	"strconv"
)

// FidelityMode selects how the measured region executes: exact (the
// event-driven loop models every cycle) or sampled (short detailed
// measurement windows alternate with functional fast-forward spans, and
// metrics become per-window estimates with confidence intervals).
type FidelityMode int

const (
	// FidelityExact is the default: the whole measured region runs on the
	// detailed loop and Result carries exact point values. The zero value,
	// so existing Options keep their meaning (and their digests, modulo the
	// simVersion bump that introduced the field).
	FidelityExact FidelityMode = iota
	// FidelitySampled runs SMARTS-style interval sampling: per period, a
	// detailed warmrun re-primes timing state, a detailed window measures,
	// and the remainder fast-forwards functionally. Result fields become
	// estimates and Result.Estimates reports mean ± 95% CI per metric.
	FidelitySampled
)

// String returns the canonical mode name ("exact", "sampled"). It renders
// inside Options.Summary via Fidelity.String, so the names are part of the
// digest contract and must never change for an existing value.
func (m FidelityMode) String() string {
	switch m {
	case FidelityExact:
		return "exact"
	case FidelitySampled:
		return "sampled"
	}
	return "FidelityMode(" + strconv.Itoa(int(m)) + ")"
}

// ParseFidelityMode maps a canonical mode name back to its value. Unknown
// names — including names a future simVersion may define — are an error so
// callers can surface them as unsupported rather than defaulting silently.
func ParseFidelityMode(s string) (FidelityMode, error) {
	switch s {
	case "", "exact":
		return FidelityExact, nil
	case "sampled":
		return FidelitySampled, nil
	}
	return 0, fmt.Errorf("unknown fidelity mode %q (want exact or sampled)", s)
}

// ParseFidelity builds the fidelity a command line asks for: mode as
// ParseFidelityMode reads it, "" when no mode was named, and ciTarget its
// early-stop target. A CI target with no mode named selects sampled; a CI
// target with an exact mode is an error, since an exact run has no
// confidence interval to stop on and would drop the target silently.
func ParseFidelity(mode string, ciTarget float64) (Fidelity, error) {
	if mode == "" && ciTarget != 0 {
		mode = FidelitySampled.String()
	}
	m, err := ParseFidelityMode(mode)
	if err != nil {
		return Fidelity{}, err
	}
	if ciTarget != 0 && m != FidelitySampled {
		return Fidelity{}, fmt.Errorf("a CI target (%g) needs sampled fidelity, not %v", ciTarget, m)
	}
	return Fidelity{Mode: m, TargetCI: ciTarget}, nil
}

// Fidelity configures the execution fidelity of the measured region. The
// zero value means exact. For sampled mode the knobs shape the interval
// schedule; zero knobs take the withDefaults values, so equivalent sampled
// runs share one canonical form just like the rest of Options.
type Fidelity struct {
	Mode FidelityMode

	// WindowInstr is the per-core length of each detailed measurement
	// window, in instructions (sampled mode; default 2000).
	WindowInstr uint64
	// PeriodInstr is the per-core sampling period: each period runs
	// warmrun + window detailed and fast-forwards the rest functionally
	// (sampled mode; default 40000 — ~25 windows at the 1M-instruction
	// scale the paper's figures run, enough for a stable Student-t CI
	// while keeping the detailed fraction under 10%).
	PeriodInstr uint64
	// WarmrunInstr is the per-core detailed warmrun preceding each
	// measurement window, re-priming queue and MSHR timing state that the
	// functional fast-forward does not model (sampled mode; default 1000).
	WarmrunInstr uint64
	// TargetCI, when positive, enables early stop: once at least
	// minSampleWindows windows are measured and the relative 95% CI of
	// both IPC and bandwidth is at or below this target, the run
	// fast-forwards straight to the end. Zero disables early stop and
	// samples every period.
	TargetCI float64
}

// Sampled reports whether this fidelity selects the sampled loop.
func (f Fidelity) Sampled() bool { return f.Mode == FidelitySampled }

// String renders the canonical form that Options.Summary folds into the
// digest: "exact", or "sampled w<window> p<period> r<warmrun> ci<target>"
// after defaults are applied. Built with strconv (not %v) so every field's
// rendering is pinned explicitly.
func (f Fidelity) String() string {
	if f.Mode != FidelitySampled {
		return f.Mode.String()
	}
	return "sampled w" + strconv.FormatUint(f.WindowInstr, 10) +
		" p" + strconv.FormatUint(f.PeriodInstr, 10) +
		" r" + strconv.FormatUint(f.WarmrunInstr, 10) +
		" ci" + strconv.FormatFloat(f.TargetCI, 'g', -1, 64)
}

// Label returns the short grid-axis label ("exact", "sampled") used in
// harness job keys when a grid crosses fidelities.
func (f Fidelity) Label() string { return f.Mode.String() }

// withDefaults returns the fidelity with its canonical derived values:
// exact mode zeroes the sampling knobs (they are meaningless there, and two
// exact Options differing only in dead knobs must digest identically), and
// sampled mode fills defaults for unset knobs.
func (f Fidelity) withDefaults() Fidelity {
	if f.Mode != FidelitySampled {
		return Fidelity{Mode: f.Mode}
	}
	if f.PeriodInstr == 0 {
		f.PeriodInstr = 40000
	}
	if f.WindowInstr == 0 {
		f.WindowInstr = 2000
	}
	if f.WarmrunInstr == 0 {
		f.WarmrunInstr = 1000
	}
	return f
}

// validate rejects schedules the sampled loop cannot run.
func (f Fidelity) validate() error {
	if f.Mode != FidelityExact && f.Mode != FidelitySampled {
		return fmt.Errorf("sim: unknown fidelity mode %d", int(f.Mode))
	}
	if f.Mode != FidelitySampled {
		return nil
	}
	if f.WindowInstr+f.WarmrunInstr > f.PeriodInstr {
		return fmt.Errorf("sim: fidelity window %d + warmrun %d exceed period %d",
			f.WindowInstr, f.WarmrunInstr, f.PeriodInstr)
	}
	if f.TargetCI < 0 {
		return fmt.Errorf("sim: negative fidelity target CI %g", f.TargetCI)
	}
	return nil
}
