// Package service exposes the campaign harness over HTTP: a sweep server
// (secddr-serve) that accepts declarative grid specs, runs them on a
// shared bounded worker pool with in-flight deduplication, persists every
// point in a result store, and streams results to clients as they finish.
// The Spec type is the wire format; Client is the matching Go client used
// by secddr-sweep's -server mode. See DESIGN.md, "The campaign service".
package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"secddr/internal/config"
	"secddr/internal/experiments"
	"secddr/internal/harness"
	"secddr/internal/scenario"
	"secddr/internal/sim"
	"secddr/internal/trace"
)

// Spec is a sweep request: a workload x mode grid plus scale overrides.
// It is the JSON body of PUT /v1/sweeps/{key} and the flag set of
// secddr-sweep in both local and -server mode, so a grid submitted
// remotely expands to exactly the same jobs — and therefore the same
// digests — as a local run.
type Spec struct {
	// Modes names the protection configurations: canonical mode names
	// (see secddr-sim -list), "all", or "fig6" (the paper's five Fig. 6
	// configurations). Empty means "fig6".
	Modes []string `json:"modes,omitempty"`
	// Workloads names the workload subset. "all" means all 29; empty
	// means all 29 unless the spec requests scenarios, in which case it
	// means none (a scenario sweep does not implicitly drag the whole
	// single-profile grid along).
	Workloads []string `json:"workloads,omitempty"`

	// Scenarios names built-in scenarios (see internal/scenario or
	// secddr-sim -list), or "all" for the whole built-in library.
	Scenarios []string `json:"scenarios,omitempty"`
	// ScenarioDefs carries inline scenario definitions — the parsed form
	// of a secddr-sweep -scenario-file manifest. Definitions cross the
	// wire verbatim, so a remote fleet sweep expands to exactly the jobs
	// (and digests) a local run of the same manifest does.
	ScenarioDefs []scenario.Scenario `json:"scenario_defs,omitempty"`

	// Quick selects smoke scale (experiments.QuickScale) instead of
	// figure-quality scale; InstrPerCore/WarmupInstr override either.
	Quick        bool   `json:"quick,omitempty"`
	InstrPerCore uint64 `json:"instr_per_core,omitempty"`
	WarmupInstr  uint64 `json:"warmup_instr,omitempty"`

	// Seed is the base workload seed; nil/omitted means the scale
	// default (42). A pointer so an explicit seed of 0 stays expressible.
	Seed *uint64 `json:"seed,omitempty"`
	// SeedPerJob derives a distinct deterministic seed per grid point.
	SeedPerJob bool `json:"seed_per_job,omitempty"`
	// Channels, when > 0, overrides the DDR channel count on every mode
	// (must be a power of two).
	Channels int `json:"channels,omitempty"`

	// Fidelity selects execution fidelity (exact, sampled, or both as a
	// grid axis) and the sampled mode's knobs. Nil means exact-only with
	// unchanged job keys, and marshals to nothing — pre-fidelity specs
	// keep their DefaultKey and SweepID. A fidelity block carrying fields
	// this server's simulator version does not know is rejected with
	// ErrUnsupportedFidelity rather than silently dropped: a dropped knob
	// would change what the digests mean without changing the digests.
	Fidelity *FidelitySpec `json:"fidelity,omitempty"`

	// Client names the submitter for quota accounting and fair
	// scheduling (the queue round-robins across clients); empty means
	// the anonymous client. It does not affect job digests, so two
	// clients sweeping the same grid still share every simulation.
	Client string `json:"client,omitempty"`
	// Priority orders queued work: jobs of higher-priority sweeps lease
	// before lower ones, regardless of submission order. Default 0;
	// negative deprioritizes. It does not affect job digests.
	Priority int `json:"priority,omitempty"`
}

// FidelitySpec is the wire form of the fidelity axis. Modes names the
// fidelities to sweep ("exact", "sampled"); empty means exact-only. The
// remaining fields tune sampled entries (zero keeps the simulator
// default) and are ignored by exact ones.
type FidelitySpec struct {
	Modes        []string `json:"modes,omitempty"`
	WindowInstr  uint64   `json:"window_instr,omitempty"`
	PeriodInstr  uint64   `json:"period_instr,omitempty"`
	WarmrunInstr uint64   `json:"warmrun_instr,omitempty"`
	CITarget     float64  `json:"ci_target,omitempty"`
}

// UnmarshalJSON rejects fidelity fields this build does not know with
// ErrUnsupportedFidelity. The top-level spec decoder's
// DisallowUnknownFields cannot see inside types with their own
// unmarshaler, and its generic "unknown field" error would hide the one
// actionable fact: the client asked for a fidelity feature this server's
// simulator version cannot honor.
func (f *FidelitySpec) UnmarshalJSON(data []byte) error {
	type plain FidelitySpec // no methods: avoids recursing into this unmarshaler
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p plain
	if err := dec.Decode(&p); err != nil {
		if strings.Contains(err.Error(), "unknown field") {
			return fmt.Errorf("%w: %v", ErrUnsupportedFidelity, err)
		}
		return err
	}
	*f = FidelitySpec(p)
	return nil
}

// Fidelities expands the block into the harness axis. Unknown mode names
// are unsupported fidelities, not typos: "sampled" itself was once a name
// only newer builds knew.
func (f *FidelitySpec) Fidelities() ([]sim.Fidelity, error) {
	if f == nil {
		return nil, nil
	}
	var (
		out     []sim.Fidelity
		sampled bool
	)
	for _, name := range f.Modes {
		mode, err := sim.ParseFidelityMode(strings.TrimSpace(name))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnsupportedFidelity, err)
		}
		fid := sim.Fidelity{Mode: mode}
		if mode == sim.FidelitySampled {
			sampled = true
			fid.WindowInstr = f.WindowInstr
			fid.PeriodInstr = f.PeriodInstr
			fid.WarmrunInstr = f.WarmrunInstr
			fid.TargetCI = f.CITarget
		}
		out = append(out, fid)
	}
	if !sampled && (f.WindowInstr != 0 || f.PeriodInstr != 0 || f.WarmrunInstr != 0 || f.CITarget != 0) {
		// Knobs without a sampled mode would be silently inert.
		return nil, fmt.Errorf("%w: fidelity knobs set but no sampled mode named", ErrUnsupportedFidelity)
	}
	return out, nil
}

// DefaultKey derives a deterministic sweep key from the spec itself, so
// clients that do not name their submissions still get idempotent
// re-submission: the same grid maps to the same key, and a crashed
// client's retry attaches to the sweep its first attempt started.
func (sp Spec) DefaultKey() (string, error) {
	raw, err := json.Marshal(sp)
	if err != nil {
		return "", fmt.Errorf("service: encoding spec: %w", err)
	}
	sum := sha256.Sum256(raw)
	return "k-" + hex.EncodeToString(sum[:8]), nil
}

// SweepID derives the stable sweep identifier for a (key, spec) pair:
// the same submission always lands on the same ID, which is what makes
// PUT /v1/sweeps/{key} idempotent across client retries, server
// restarts, and replica failover. Distinct specs under one key get
// distinct IDs (a reused key does not silently attach to a different
// grid). The spec's JSON form — including Client and Priority — is part
// of the identity.
func SweepID(key string, spec Spec) (string, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("service: encoding spec: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write(raw)
	return "sw-" + hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// validateSweepKey bounds client-supplied keys: they travel in URL
// paths and WAL records, so keep them short, non-empty, and free of
// path separators and whitespace.
func validateSweepKey(key string) error {
	if key == "" {
		return fmt.Errorf("service: sweep key must not be empty")
	}
	if len(key) > 200 {
		return fmt.Errorf("service: sweep key longer than 200 bytes")
	}
	for _, r := range key {
		if r == '/' || r == '\\' || r <= ' ' || r == 0x7f {
			return fmt.Errorf("service: sweep key %q contains %q", key, r)
		}
	}
	return nil
}

// Grid validates the spec against internal/config and internal/trace and
// expands it to the harness grid. Every named mode must parse, every
// workload must exist, every resulting configuration must pass
// config.Validate, and no two jobs may share a key or a digest, so a
// malformed request fails before any simulation.
func (sp Spec) Grid() (harness.Grid, error) {
	configs, err := sp.configs()
	if err != nil {
		return harness.Grid{}, err
	}
	if sp.Channels > 0 {
		if sp.Channels&(sp.Channels-1) != 0 {
			return harness.Grid{}, fmt.Errorf("service: channels must be a power of two, got %d", sp.Channels)
		}
		// Re-normalize after the override so derived fields (burst beats,
		// clock ratio) stay consistent.
		for i := range configs {
			configs[i].Config.DRAM.Channels = sp.Channels
			configs[i].Config.Normalize()
		}
	}
	for _, nc := range configs {
		if err := nc.Config.Validate(); err != nil {
			return harness.Grid{}, fmt.Errorf("service: config %q: %w", nc.Label, err)
		}
	}
	scenarios, err := sp.scenarios()
	if err != nil {
		return harness.Grid{}, err
	}
	for _, scn := range scenarios {
		for _, nc := range configs {
			if err := scn.Validate(nc.Config.Core.NumCores); err != nil {
				return harness.Grid{}, fmt.Errorf("service: config %q: %w", nc.Label, err)
			}
		}
	}
	profiles, err := sp.profiles(len(scenarios) > 0)
	if err != nil {
		return harness.Grid{}, err
	}
	fids, err := sp.Fidelity.Fidelities()
	if err != nil {
		return harness.Grid{}, err // ErrUnsupportedFidelity already names the package
	}

	scale := experiments.DefaultScale()
	if sp.Quick {
		scale = experiments.QuickScale()
	}
	if sp.InstrPerCore > 0 {
		scale.InstrPerCore = sp.InstrPerCore
	}
	if sp.WarmupInstr > 0 {
		scale.WarmupInstr = sp.WarmupInstr
	}
	seed := scale.Seed
	if sp.Seed != nil {
		seed = *sp.Seed
	}

	if err := sp.checkDistinct(profiles, scenarios, configs, fids); err != nil {
		return harness.Grid{}, err
	}
	return harness.Grid{
		Workloads:    profiles,
		Scenarios:    scenarios,
		Configs:      configs,
		InstrPerCore: scale.InstrPerCore,
		WarmupInstr:  scale.WarmupInstr,
		Seed:         seed,
		SeedPerJob:   sp.SeedPerJob,
		Fidelities:   fids,
	}, nil
}

// checkDistinct rejects a grid two of whose jobs would share a key or a
// digest. A job key is name/label[/fidelity] with no '/' inside a part,
// so keys repeat exactly when a workload or scenario name, a mode label
// or a fidelity repeats; the check runs on those few names because
// expanding the jobs would cost more than the rest of Grid. One
// configuration under two labels ("fig6"'s tree-64ary next to
// "integrity-tree") repeats a digest instead, unless per-job seeds tell
// its jobs apart.
func (sp Spec) checkDistinct(profiles []trace.Profile, scenarios []scenario.Scenario, configs []harness.NamedConfig, fids []sim.Fidelity) error {
	names := make([]string, 0, len(profiles)+len(scenarios))
	labels := make([]string, 0, len(configs))
	fidLabels := make([]string, 0, len(fids))
	for _, p := range profiles {
		names = append(names, p.Name)
	}
	for _, s := range scenarios {
		names = append(names, s.Name)
	}
	for i, nc := range configs {
		for _, prev := range configs[:i] {
			if nc.Config == prev.Config && nc.Label != prev.Label && !sp.SeedPerJob {
				return fmt.Errorf("service: mode %q requested twice (as %q)", prev.Label, nc.Label)
			}
		}
		labels = append(labels, nc.Label)
	}
	for _, f := range fids {
		fidLabels = append(fidLabels, f.Label())
	}
	for _, axis := range [][]string{names, labels, fidLabels} {
		for i, name := range axis {
			if slices.Contains(axis[:i], name) {
				return fmt.Errorf("service: %q requested twice", name)
			}
		}
	}
	return nil
}

// configs expands Modes into labelled configurations.
func (sp Spec) configs() ([]harness.NamedConfig, error) {
	if len(sp.Modes) == 0 {
		return experiments.Fig6Configs(), nil
	}
	var out []harness.NamedConfig
	for _, name := range sp.Modes {
		switch strings.TrimSpace(name) {
		case "fig6":
			out = append(out, experiments.Fig6Configs()...)
		case "all":
			for m := config.ModeIntegrityTree; m <= config.ModeUnprotected; m++ {
				out = append(out, harness.NamedConfig{Label: m.String(), Config: config.Table1(m)})
			}
		default:
			m, err := config.ParseMode(strings.TrimSpace(name))
			if err != nil {
				return nil, fmt.Errorf("service: %w", err)
			}
			out = append(out, harness.NamedConfig{Label: m.String(), Config: config.Table1(m)})
		}
	}
	return out, nil
}

// scenarios expands Scenarios and ScenarioDefs.
func (sp Spec) scenarios() ([]scenario.Scenario, error) {
	var out []scenario.Scenario
	for _, name := range sp.Scenarios {
		name = strings.TrimSpace(name)
		if name == "all" {
			out = append(out, scenario.Builtins()...)
			continue
		}
		s, ok := scenario.ByName(name)
		if !ok {
			return nil, fmt.Errorf("service: unknown scenario %q (see secddr-sim -list)", name)
		}
		out = append(out, s)
	}
	out = append(out, sp.ScenarioDefs...)
	for _, s := range out {
		if err := s.Validate(0); err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
	}
	return out, nil
}

// profiles expands Workloads into trace profiles. An empty list means
// every profile — unless the spec is a scenario sweep, which starts from
// an empty workload set.
func (sp Spec) profiles(haveScenarios bool) ([]trace.Profile, error) {
	if len(sp.Workloads) == 0 {
		if haveScenarios {
			return nil, nil
		}
		return trace.Profiles(), nil
	}
	var out []trace.Profile
	for _, name := range sp.Workloads {
		name = strings.TrimSpace(name)
		if name == "all" {
			return trace.Profiles(), nil
		}
		p, ok := trace.ByName(name)
		if !ok {
			return nil, fmt.Errorf("service: unknown workload %q (see secddr-sim -list)", name)
		}
		out = append(out, p)
	}
	return out, nil
}

// ParseList splits a comma-separated flag value into a Spec name list.
func ParseList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
