package harness

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"secddr/internal/sim"
)

// This file holds the campaign scheduler behind RunContext. Points whose
// options share a sim.WarmupKey form a snapshot group that warms once
// (sim.Warmup) and forks every member from the snapshot
// (sim.Warmed.Fork). Forking is result-identical to a cold run — the sim
// package's snapshot identity suite is the proof — so the caching, dedup,
// and store semantics are unchanged; only redundant warmups disappear. A
// substituted Campaign.Sim makes every point its own group, run through
// c.Sim, so tests and cold-run benchmarks take the same dispatch, abort,
// and error-reporting path as production sweeps.

// Carry holds one warmed snapshot between campaigns. A fleet worker and a
// sweep server's local pool each run a stream of small lease batches, and
// the queue hands out a sweep's jobs in grid order, so a batch often
// begins with the warmup group the previous batch ended with. A campaign
// given a Carry forks that group from the carried snapshot instead of
// warming it again, and leaves behind the snapshot of its own last group
// in dispatch order. Capacity is one snapshot, fixed, which bounds what a
// long-lived process holds between batches. The zero value is empty and
// ready to use; campaigns may share one Carry concurrently.
type Carry struct {
	mu sync.Mutex
	w  *sim.Warmed
}

func (c *Carry) load() *sim.Warmed {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.w
}

func (c *Carry) store(w *sim.Warmed) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w = w
}

// runForked executes the pending points with warmup sharing. Groups are
// formed by iterating the deterministic order slice, never the pending
// map: map iteration would randomize group and store-append order between
// identical runs (the emitted JSON stays byte-identical either way, but
// determinism everywhere is what keeps that property easy to trust).
// Without a carry, single-point groups run cold, through sim.Run or c.Sim
// when set: forking a snapshot used once would pay a deep copy for
// nothing. With one, they warm and fork like any group, because their
// snapshot may serve the next campaign, and the group matching the
// carried snapshot skips its warmup. Fork tasks are scheduled in
// preference to warmup tasks so snapshots retire (and free their memory)
// before new ones are created. It returns the results of the points that
// completed and the first error, labelled with its job key.
func (c Campaign) runForked(ctx context.Context, order []string, pending map[string]sim.Options,
	keyOf map[string]string, store Store, prog *progressTracker) (map[string]sim.Result, error) {

	cold := sim.Run
	carry := c.Carry
	if c.Sim != nil {
		cold = c.Sim
		carry = nil
	}
	type group struct {
		idx     int
		digests []string
	}
	groupIdx := make(map[string]int)
	var groups []*group
	for _, d := range order {
		k := d // a substituted Sim cannot fork: every point runs alone
		if c.Sim == nil {
			k = pending[d].WarmupKey()
		}
		gi, ok := groupIdx[k]
		if !ok {
			gi = len(groups)
			groupIdx[k] = gi
			groups = append(groups, &group{idx: gi})
		}
		groups[gi].digests = append(groups[gi].digests, d)
	}

	type forkTask struct {
		warmed *sim.Warmed
		digest string
	}
	executed := make(map[string]sim.Result, len(order))
	var (
		mu       sync.Mutex // guards executed, firstErr and keep
		firstErr error
		qmu      sync.Mutex
		cond     = sync.NewCond(&qmu)
		warms    = groups
		forks    []forkTask
		active   int
		// keep is the snapshot to carry out: the one serving the
		// latest group in dispatch order.
		keep struct {
			idx int
			w   *sim.Warmed
		}
	)
	keep.idx = -1
	offer := func(gi int, w *sim.Warmed) {
		mu.Lock()
		defer mu.Unlock()
		if gi > keep.idx {
			keep.idx, keep.w = gi, w
		}
	}
	if carry != nil {
		if w := carry.load(); w != nil {
			if gi, ok := groupIdx[w.Key()]; ok {
				for _, d := range groups[gi].digests {
					forks = append(forks, forkTask{warmed: w, digest: d})
				}
				warms = slices.Delete(slices.Clone(groups), gi, gi+1)
				offer(gi, w)
			}
		}
	}
	// aborted is checked before claiming each task; in-flight tasks always
	// finish (their results still reach the store). Lock order: qmu, then
	// mu — never the reverse.
	aborted := func() bool {
		if ctx.Err() != nil {
			return true
		}
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	finish := func(d string, res sim.Result, err error, forked bool) {
		if err != nil && c.OnError != nil {
			c.OnError(d, err)
		}
		if err == nil {
			// The store has its own lock, so disk flushes never
			// serialize result collection under mu.
			err = store.Record(d, res)
		}
		mu.Lock()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", keyOf[d], err)
			}
		} else {
			executed[d] = res
		}
		mu.Unlock()
		if err == nil {
			prog.executed(forked)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < c.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				qmu.Lock()
				for len(forks) == 0 && len(warms) == 0 && active > 0 {
					cond.Wait()
				}
				if len(forks) == 0 && len(warms) == 0 {
					// Nothing queued and nothing in flight that could
					// enqueue more: the campaign is done.
					qmu.Unlock()
					cond.Broadcast()
					return
				}
				if aborted() {
					forks, warms = nil, nil
					qmu.Unlock()
					cond.Broadcast()
					return
				}
				var ft forkTask
				var g *group
				if len(forks) > 0 {
					ft = forks[len(forks)-1]
					forks = forks[:len(forks)-1]
				} else {
					g = warms[0]
					warms = warms[1:]
				}
				active++
				qmu.Unlock()

				switch {
				case g == nil:
					if c.OnStart != nil {
						c.OnStart(ft.digest)
					}
					res, err := ft.warmed.Fork(pending[ft.digest])
					finish(ft.digest, res, err, true)
				case len(g.digests) == 1 && carry == nil:
					// A cold run pays its own (uncounted-by-Warmup) timed
					// warmup; count it so Executed - Warmups is exactly the
					// number of warmups sharing saved. A substituted Sim
					// reports no warmups.
					if c.Sim == nil {
						prog.warmup()
					}
					d := g.digests[0]
					if c.OnStart != nil {
						c.OnStart(d)
					}
					res, err := cold(pending[d])
					finish(d, res, err, false)
				default:
					d0 := g.digests[0]
					warmed, err := sim.Warmup(pending[d0])
					if err != nil {
						// The whole group is doomed: report every member so
						// a fleet worker can release its leases, and label
						// the campaign error with the first one.
						for _, d := range g.digests {
							if c.OnError != nil {
								c.OnError(d, err)
							}
						}
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("%s: %w", keyOf[d0], err)
						}
						mu.Unlock()
					} else {
						prog.warmup()
						if carry != nil {
							offer(g.idx, warmed)
						}
						qmu.Lock()
						for _, d := range g.digests {
							forks = append(forks, forkTask{warmed: warmed, digest: d})
						}
						qmu.Unlock()
					}
				}

				qmu.Lock()
				active--
				qmu.Unlock()
				cond.Broadcast()
			}
		}()
	}
	wg.Wait()
	if carry != nil && keep.w != nil {
		carry.store(keep.w)
	}
	return executed, firstErr
}
