package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"secddr/internal/harness"
	"secddr/internal/sim"
)

// reference.json holds, for the default seed, the digest of every point's
// result JSON on each grid. A change that only speeds the simulator up must
// leave every simulated statistic, and so every digest, unchanged. Refresh
// it with -record after a deliberate model change.
//
//go:embed reference.json
var referenceJSON []byte

// reference maps grid name -> job key -> result digest.
type reference struct {
	Seed  uint64                       `json:"seed"`
	Grids map[string]map[string]string `json:"grids"`
}

// referenceFor returns the recorded digests of a grid at a seed, or nil
// when none were recorded (any seed but the default).
func referenceFor(grid string, seed uint64) (map[string]string, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	if ref.Seed != seed {
		return nil, nil
	}
	return ref.Grids[grid], nil
}

// resultDigest is the short digest of a result's JSON encoding, which is
// what every path hands to users (files, NDJSON streams, the store).
func resultDigest(res sim.Result) (string, error) {
	raw, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8]), nil
}

// checker verifies every sweep of a run. Against a recorded reference when
// one exists for the seed; otherwise the first good result of each point
// becomes its reference, so later sweeps and the traced replay must match
// it.
type checker struct {
	jobs    []harness.Job
	sampled bool
	want    map[string]string // key -> result digest
}

func newChecker(jobs []harness.Job, sampled bool, ref map[string]string) *checker {
	return &checker{jobs: jobs, sampled: sampled, want: ref}
}

// check counts the points of one sweep that are missing, malformed, or
// differ from the reference, and returns the sweep's digests.
func (c *checker) check(outs []harness.Outcome) (failed int, got map[string]string, problems []string) {
	byKey := make(map[string]sim.Result, len(outs))
	for _, o := range outs {
		byKey[o.Key] = o.Result
	}
	got = make(map[string]string, len(c.jobs))
	for _, j := range c.jobs {
		res, ok := byKey[j.Key]
		if !ok {
			failed++
			problems = append(problems, j.Key+": no result")
			continue
		}
		if err := plausible(res, c.sampled); err != nil {
			failed++
			problems = append(problems, j.Key+": "+err.Error())
			continue
		}
		d, err := resultDigest(res)
		if err != nil {
			failed++
			problems = append(problems, j.Key+": "+err.Error())
			continue
		}
		got[j.Key] = d
		if !c.agrees(j.Key, d) {
			failed++
			problems = append(problems, fmt.Sprintf("%s: result digest %s, want %s", j.Key, d, c.want[j.Key]))
		}
	}
	return failed, got, problems
}

// agrees reports whether digest d of the point key matches its reference.
// A point without one adopts d as its reference.
func (c *checker) agrees(key, d string) bool {
	if c.want == nil {
		c.want = make(map[string]string, len(c.jobs))
	}
	want, ok := c.want[key]
	if !ok {
		c.want[key] = d
		return true
	}
	return d == want
}

// plausible rejects results no correct run produces: no retired
// instructions, non-finite or non-positive IPC, and for sampled points a
// missing IPC estimate or a non-finite confidence interval.
func plausible(res sim.Result, sampled bool) error {
	if res.Instructions == 0 || !(res.IPC > 0) || math.IsInf(res.IPC, 0) {
		return fmt.Errorf("implausible result: %d instructions, IPC %v", res.Instructions, res.IPC)
	}
	if !sampled {
		return nil
	}
	if _, ok := res.Estimates["ipc"]; !ok {
		return fmt.Errorf("sampled result without an ipc estimate")
	}
	for name, e := range res.Estimates {
		if math.IsNaN(e.Mean) || math.IsInf(e.Mean, 0) || math.IsNaN(e.CI95) || math.IsInf(e.CI95, 0) || e.CI95 < 0 || e.Windows < 1 {
			return fmt.Errorf("estimate %s: mean %v ± %v over %d windows", name, e.Mean, e.CI95, e.Windows)
		}
	}
	return nil
}

// recordReference runs every grid once at the default seed and writes the
// digests to path.
func recordReference(path string, workdir string) error {
	ref := reference{Seed: defaultSeed, Grids: make(map[string]map[string]string)}
	for _, g := range []string{gridFig6, gridSampled} {
		e, err := setup(workload{grid: g, path: pathLocal}, options{seed: defaultSeed, workdir: workdir}, spanCtx{})
		if err != nil {
			return err
		}
		outs, err := e.dispatch()
		e.close()
		if err != nil {
			return err
		}
		c := newChecker(e.jobs, g == gridSampled, nil)
		if failed, _, problems := c.check(outs); failed > 0 {
			return fmt.Errorf("grid %s: %d points failed: %v", g, failed, problems)
		}
		ref.Grids[g] = c.want
	}
	raw, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
