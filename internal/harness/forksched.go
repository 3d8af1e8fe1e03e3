package harness

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"secddr/internal/sim"
	"secddr/internal/trace"
)

// This file holds the one campaign scheduler. RunContext runs it over a
// campaign's fixed job list; Serve runs it over an open feed of jobs for
// as long as a process executes leased work (a sweep server's local pool
// and secddr-worker each run one). Points whose options share a
// sim.WarmupKey form a snapshot group that warms once (sim.Warmup) and
// forks every member from the snapshot (sim.Warmed.Fork). Forking is
// result-identical to a cold run — the sim package's snapshot identity
// suite is the proof — so the caching, dedup, and store semantics are
// unchanged; only redundant warmups disappear. A substituted Campaign.Sim
// makes every point its own group, run through c.Sim, so tests and
// cold-run benchmarks take the same dispatch, abort, and error-reporting
// path as production sweeps.

// Feed is the open job source of Serve. It blocks until it has work and
// returns at most max jobs; an empty return means no job will ever come
// (the source closed, or ctx ended).
type Feed func(ctx context.Context, max int) []Job

// leaseAhead is how many jobs per slot Serve holds ahead: a top-up asks
// the feed for leaseAhead×workers minus the jobs held but not started,
// and none comes while that is zero.
const leaseAhead = 2

// point is one job the scheduler holds, with its digest and group key.
type point struct {
	Job
	digest string
	group  string // the WarmupKey; the digest when a substituted Sim runs points alone
}

// group is one snapshot group: its members wait on the warmup, then each
// forks from the warmed snapshot.
type group struct {
	key     string
	class   tableClass
	tables  *trace.Tables // its class's page tables; nil under a substituted Sim
	members []point       // waiting on the warmup
	warmed  *sim.Warmed   // nil while warming
	forks   int           // forks queued or running
}

// tableClass names the measured page tables a point's streams read. A
// profile's are a function of its footprint, the seed and the core count,
// since each core's stream seed derives from the seed alone: every
// workload of one footprint reads the same tables. A scenario point's
// class is its own group.
type tableClass struct {
	footprint uint64 // zero for a scenario
	seed      uint64
	cores     int
	scenario  string // the group key of a scenario point
}

func classOf(p point) tableClass {
	c := tableClass{seed: p.Opt.Seed, cores: p.Opt.Config.Core.NumCores}
	if p.Opt.Scenario.IsZero() {
		c.footprint = p.Opt.Workload.Footprint
	} else {
		c.scenario = p.group
	}
	return c
}

// compare orders classes largest footprint first, then by seed and core
// count; scenario classes come last.
func (c tableClass) compare(d tableClass) int {
	return cmp.Or(cmp.Compare(d.footprint, c.footprint), cmp.Compare(c.seed, d.seed), cmp.Compare(c.cores, d.cores))
}

// tableSet is one class's page tables, shared by the warmups and cold runs
// of every group in the class, and how many held groups read them.
type tableSet struct {
	tables *trace.Tables
	groups int
}

type forkTask struct {
	g *group
	p point
}

// sched is the dispatch loop behind RunContext and Serve. Slots claim
// fork tasks in preference to warmups, so snapshots retire (and free
// their memory) before new ones are created. Fork tasks are claimed
// oldest-first, so a group's points start in arrival order: the figure
// grids list their slowest mode, the 64-ary tree, first in every group,
// and claimed last it would run alone at the sweep's tail while the
// other slots idle. Groups are formed in arrival order, never map order:
// map iteration would randomize group and store-append order between
// identical runs (the emitted JSON stays byte-identical either way, but
// determinism everywhere is what keeps that property easy to trust).
// A fixed job list arrives in table class order, a stable sort of the
// grid, so it is as deterministic as the grid.
//
// The scheduler owns the sweep's measured page tables: one trace.Tables
// set per table class, held from the first group of the class it files
// to the last one it lets go. In class order a fixed list shuffles each
// table once, and only one class's tables are live at a time. On a feed
// it sees only the lease window; a set stays while any group it holds
// reads it, the kept newest group included, and a new group takes its
// set before the group it replaces lets go.
//
// With a feed, a feeder goroutine tops up whenever a slot would
// otherwise wait (no fork is ready and no group is left to warm) and the
// lease window (leaseAhead) has room. A job
// that arrives for a group that is warming or live joins it. A retired
// group's snapshot is kept while that group is the newest one opened:
// the queue hands out a sweep's jobs in grid order, so the next top-up
// may continue it, while a group older than the newest is done for.
// Until the feed ends, a group of one warms and forks like any other,
// since later jobs may join it; once no job can come, one runs cold,
// through sim.Run or the substituted Sim: forking a snapshot used once
// would pay a deep copy for nothing.
type sched struct {
	workers int
	simFn   func(sim.Options) (sim.Result, error) // nil: fork-aware built-in
	onStart func(digest string)
	warmup  func() // a timed warmup ran
	// finish delivers a point's fate, outside the scheduler's lock.
	finish func(p point, res sim.Result, err error, forked bool)

	mu     sync.Mutex
	work   *sync.Cond // slots wait for a task or the end
	demand *sync.Cond // the feeder waits for an idle slot with nothing to run
	held   map[string]bool
	groups map[string]*group
	sets   map[tableClass]*tableSet
	// builds counts the page tables shuffled by sets already let go.
	builds int
	warms  []*group
	forks  []forkTask
	newest *group // the group opened last
	// unstarted counts held points not yet started, active the running
	// tasks, idle the slots waiting for one.
	unstarted, active, idle int
	ended                   bool // nothing more will arrive
}

func (c Campaign) sched(prog *progressTracker) *sched {
	return &sched{workers: c.workers(), simFn: c.Sim, warmup: prog.warmup}
}

// point keys job j for the scheduler, given its digest.
func (s *sched) point(j Job, digest string) point {
	p := point{Job: j, digest: digest, group: digest}
	if s.simFn == nil {
		p.group = j.Opt.WarmupKey()
	}
	return p
}

// run schedules pts in table class order, then jobs from feed (nil:
// none), and returns once every task has run — or, after ctx ends, once
// in-flight tasks have finished; tasks not started by then are dropped.
func (s *sched) run(ctx context.Context, pts []point, feed Feed) {
	s.work, s.demand = sync.NewCond(&s.mu), sync.NewCond(&s.mu)
	s.held, s.groups = make(map[string]bool), make(map[string]*group)
	s.sets = make(map[tableClass]*tableSet)
	if s.simFn == nil {
		slices.SortStableFunc(pts, func(a, b point) int { return classOf(a).compare(classOf(b)) })
	}
	s.mu.Lock()
	s.add(pts)
	s.ended = feed == nil
	s.mu.Unlock()
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.work.Broadcast()
		s.demand.Broadcast()
	})
	defer stop()

	var wg sync.WaitGroup
	if feed != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.feed(ctx, feed)
		}()
	}
	for range s.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.slot(ctx)
		}()
	}
	wg.Wait()
}

// add files arriving points: each joins its group when one is warming or
// live, or opens a group to warm. A digest already held is dropped (a
// lease can hand back a job whose first lease expired mid-run). Caller
// holds s.mu.
func (s *sched) add(pts []point) {
	for _, p := range pts {
		if s.held[p.digest] {
			continue
		}
		s.held[p.digest] = true
		s.unstarted++
		switch g := s.groups[p.group]; {
		case g == nil:
			g = &group{key: p.group, class: classOf(p), members: []point{p}}
			s.hold(g)
			if old := s.newest; old != nil && old.warmed != nil && old.forks == 0 {
				s.drop(old) // retired and no longer the newest
			}
			s.groups[p.group] = g
			s.newest = g
			s.warms = append(s.warms, g)
		case g.warmed == nil:
			g.members = append(g.members, p)
		default:
			g.forks++
			s.forks = append(s.forks, forkTask{g, p})
		}
	}
	s.work.Broadcast()
}

// feed fills the scheduler from f at once, every slot being free, then
// tops it up whenever a slot would otherwise wait and the window has
// room, until f runs dry or ctx ends. Members waiting on a warming group
// fill the window like any other unstarted job, so a slot may idle
// through a warmup rather than hoard the rest of its group.
func (s *sched) feed(ctx context.Context, f Feed) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for ctx.Err() == nil {
		n := leaseAhead*s.workers - s.unstarted
		s.mu.Unlock()
		jobs := f(ctx, n)
		pts := make([]point, len(jobs))
		for i, j := range jobs {
			pts[i] = s.point(j, j.Opt.Digest())
		}
		s.mu.Lock()
		if len(pts) == 0 {
			break
		}
		s.add(pts)
		for ctx.Err() == nil && (s.idle == 0 || len(s.forks) > 0 || len(s.warms) > 0 ||
			s.unstarted >= leaseAhead*s.workers) {
			s.demand.Wait()
		}
	}
	s.ended = true
	s.work.Broadcast()
}

// slot is one worker: it claims tasks until nothing more can arrive or
// ctx ends.
func (s *sched) slot(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for ctx.Err() == nil {
		switch {
		case len(s.forks) > 0:
			t := s.forks[0]
			s.forks[0] = forkTask{}
			s.forks = s.forks[1:]
			s.unstarted--
			s.active++
			s.mu.Unlock()
			s.start(t.p)
			res, err := t.g.warmed.Fork(t.p.Opt)
			s.done(t.p, res, err, true)
			s.mu.Lock()
			if t.g.forks--; t.g.forks == 0 {
				s.retire(t.g)
			}
		case len(s.warms) > 0:
			g := s.warms[0]
			s.warms[0] = nil
			s.warms = s.warms[1:]
			s.active++
			s.warmGroup(g)
		case s.ended && s.active == 0:
			s.work.Broadcast()
			return
		default:
			s.idle++
			s.demand.Signal()
			s.work.Wait()
			s.idle--
			continue
		}
		s.active--
		s.work.Broadcast()
	}
	s.forks, s.warms = nil, nil // never to start
}

// warmGroup runs group g's warmup and queues a fork per member; a group
// of one runs cold instead once no job can join it. Called and returns
// with s.mu held, releasing it while simulating.
func (s *sched) warmGroup(g *group) {
	p := g.members[0]
	if len(g.members) == 1 && (s.simFn != nil || s.ended) {
		g.members = nil
		s.drop(g)
		s.unstarted--
		s.mu.Unlock()
		run := func(o sim.Options) (sim.Result, error) { return sim.RunShared(o, g.tables) }
		if s.simFn != nil {
			run = s.simFn
		} else {
			// A cold run pays its own timed warmup; count it so Executed -
			// Warmups is exactly the number of warmups sharing saved. A
			// substituted Sim reports no warmups.
			s.warmup()
		}
		s.start(p)
		res, err := run(p.Opt)
		s.done(p, res, err, false)
		s.mu.Lock()
		return
	}
	s.mu.Unlock()
	warmed, err := sim.WarmupShared(p.Opt, g.tables)
	s.mu.Lock()
	members := g.members
	g.members = nil
	if err != nil {
		// The whole group is doomed, members that joined during the
		// warmup included: report each one.
		s.drop(g)
		s.unstarted -= len(members)
		s.mu.Unlock()
		for _, m := range members {
			s.done(m, sim.Result{}, err, false)
		}
		s.mu.Lock()
		return
	}
	g.warmed = warmed
	g.forks += len(members)
	for _, m := range members {
		s.forks = append(s.forks, forkTask{g, m})
	}
	s.mu.Unlock()
	s.warmup()
	s.mu.Lock()
}

// retire drops group g, whose forks have all finished, unless jobs may
// still arrive and g is the newest group: then its snapshot stays for
// them until a newer group opens. Caller holds s.mu.
func (s *sched) retire(g *group) {
	if s.ended || g != s.newest {
		s.drop(g)
	}
}

// hold gives new group g its class's page tables, opening the class's set
// for its first group. A substituted Sim reads no tables. Caller holds
// s.mu.
func (s *sched) hold(g *group) {
	if s.simFn != nil {
		return
	}
	ts := s.sets[g.class]
	if ts == nil {
		ts = &tableSet{tables: new(trace.Tables)}
		s.sets[g.class] = ts
	}
	ts.groups++
	g.tables = ts.tables
}

// drop lets go of group g, and of its table set when no other held group
// reads it; a group already let go stays so. Caller holds s.mu.
func (s *sched) drop(g *group) {
	if s.groups[g.key] != g {
		return
	}
	delete(s.groups, g.key)
	if g.tables == nil {
		return
	}
	ts := s.sets[g.class]
	if ts.groups--; ts.groups == 0 {
		delete(s.sets, g.class)
		s.builds += ts.tables.Builds()
	}
}

func (s *sched) start(p point) {
	if s.onStart != nil {
		s.onStart(p.digest)
	}
}

// done lets go of p and delivers its fate. Letting go comes first: a
// sink may hand the job back while it delivers (a worker releases a job
// whose upload failed), and the feed must then be able to run it again.
// Called without s.mu.
func (s *sched) done(p point, res sim.Result, err error, forked bool) {
	s.mu.Lock()
	delete(s.held, p.digest)
	s.mu.Unlock()
	s.finish(p, res, err, forked)
}
