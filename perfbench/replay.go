package main

import (
	"fmt"
	"strings"
	"time"

	"secddr/internal/harness"
	"secddr/internal/sim"
)

// replayStats are the sim-layer numbers of a single-threaded replay.
type replayStats struct {
	warmupMS     []float64
	forkMS       map[string][]float64 // config label -> fork times
	sampledMS    []float64            // every fork of a sampled point
	firstOverMem []float64            // per snapshot: first fork / memoized refork
	coldMS       []float64
	forkNS       float64 // total host time of first forks
	kcycles      float64 // simulated CPU kilocycles of those forks
	dramCmds     float64 // DRAM commands issued in those forks
	results      map[string]sim.Result
}

// coldLabel selects the points the replay also runs cold with sim.Run:
// the paper's headline design, once per workload.
const coldLabel = "secddr+ctr"

// replay runs the grid one call at a time through the simulator's public
// entry points, as the fork scheduler would but on one goroutine: per
// warmup group one sim.Warmup, one Warmed.Fork per point, one memoized
// re-fork of the group's last point, and one cold sim.Run for each
// coldLabel point. Every call is a span; every result must equal the one
// the first fork of that point returned.
func replay(jobs []harness.Job, sc spanCtx) (replayStats, error) {
	st := replayStats{forkMS: make(map[string][]float64), results: make(map[string]sim.Result)}
	var groups [][]harness.Job
	index := make(map[string]int)
	for _, j := range jobs {
		k := j.Opt.WarmupKey()
		i, ok := index[k]
		if !ok {
			i = len(groups)
			index[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], j)
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, g := range groups {
		sp := sc.begin("sim.Warmup")
		w, err := sim.Warmup(g[0].Opt)
		st.warmupMS = append(st.warmupMS, ms(sp.end()))
		if err != nil {
			return st, fmt.Errorf("warmup %s: %w", g[0].Key, err)
		}
		var last time.Duration
		for _, j := range g {
			sp := sc.begin("sim.Fork")
			res, err := w.Fork(j.Opt)
			d := sp.endCount(1)
			if err != nil {
				return st, fmt.Errorf("fork %s: %w", j.Key, err)
			}
			st.results[j.Key] = res
			st.forkMS[label(j.Key)] = append(st.forkMS[label(j.Key)], ms(d))
			if j.Opt.Fidelity.Mode == sim.FidelitySampled {
				st.sampledMS = append(st.sampledMS, ms(d))
			}
			st.forkNS += float64(d)
			st.kcycles += float64(res.Cycles) / 1000
			st.dramCmds += float64(dramCommands(res))
			last = d
		}
		j := g[len(g)-1]
		sp = sc.begin("sim.Fork.memoized")
		res, err := w.Fork(j.Opt)
		memo := sp.end()
		if err := sameResult(j.Key, res, err, st.results[j.Key]); err != nil {
			return st, err
		}
		st.firstOverMem = append(st.firstOverMem, float64(last)/float64(memo))
		for _, j := range g {
			if label(j.Key) != coldLabel {
				continue
			}
			sp := sc.begin("sim.Run")
			res, err := sim.Run(j.Opt)
			st.coldMS = append(st.coldMS, ms(sp.end()))
			if err := sameResult(j.Key, res, err, st.results[j.Key]); err != nil {
				return st, err
			}
		}
	}
	return st, nil
}

// label is the configuration label of a "workload/label" job key.
func label(key string) string {
	_, l, _ := strings.Cut(key, "/")
	return l
}

// dramCommands totals the activate, precharge, read, write and refresh
// commands across every channel of a result's profile.
func dramCommands(res sim.Result) uint64 {
	var n uint64
	for k, v := range res.Profile {
		if !strings.HasPrefix(k, "ch") || strings.Contains(k, "/bank") {
			continue
		}
		for _, c := range []string{"/activates", "/precharges", "/reads", "/writes", "/refreshes"} {
			if strings.HasSuffix(k, c) {
				n += v
			}
		}
	}
	return n
}

// sameResult reports a replay call that failed or disagreed with the
// point's first fork.
func sameResult(key string, res sim.Result, err error, want sim.Result) error {
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	a, errA := resultDigest(res)
	b, errB := resultDigest(want)
	if errA != nil || errB != nil || a != b {
		return fmt.Errorf("%s: replayed result differs from its first fork", key)
	}
	return nil
}
