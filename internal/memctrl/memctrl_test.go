package memctrl

import (
	"container/heap"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"unsafe"

	"secddr/internal/config"
	"secddr/internal/dram"
)

func testCfg() config.DRAM {
	d := config.Table1(config.ModeUnprotected).DRAM
	d.RefreshEnabled = false
	return d
}

func newCtl(t *testing.T, cfg config.DRAM) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

// run ticks the controller until n reads complete or maxCycles pass.
func run(t *testing.T, c *Controller, n int, maxCycles int64) []Completion {
	t.Helper()
	var out []Completion
	for cyc := int64(0); cyc < maxCycles && len(out) < n; cyc++ {
		out = append(out, c.Tick(cyc)...)
	}
	if len(out) < n {
		t.Fatalf("only %d/%d reads completed in %d cycles: %v", len(out), n, maxCycles, c)
	}
	return out
}

func TestSingleReadCompletes(t *testing.T) {
	c := newCtl(t, testCfg())
	const tag = 7
	fwd, err := c.EnqueueRead(0x1000, 0, tag)
	if err != nil || fwd {
		t.Fatalf("enqueue: fwd=%v err=%v", fwd, err)
	}
	comps := run(t, c, 1, 1000)
	if comps[0].Tag != tag {
		t.Errorf("completion tag = %d, want %d", comps[0].Tag, tag)
	}
	// Idle-bank read latency: ACT + tRCD + tCL + burst, plus a few cycles of
	// scheduling. Must be at least tRCD+tCL+4 and far below 200.
	min := int64(22 + 22 + 4)
	if comps[0].Done < min || comps[0].Done > 200 {
		t.Errorf("read latency = %d, want in [%d, 200]", comps[0].Done, min)
	}
}

// TestTickClockRestart completes a read, then runs a read to another bank
// with the clock restarted at cycle 0, as a caller that restarts its cycle
// count does: the second read's ACT sets a tRCD horizon that the first
// run's clock has already passed, and its RD must still wait for it.
func TestTickClockRestart(t *testing.T) {
	c := newCtl(t, testCfg())
	c.EnqueueRead(0x0, 0, 1)
	run(t, c, 1, 1000)
	c.EnqueueRead(0x40, 0, 2)
	if comps := run(t, c, 1, 1000); comps[0].Tag != 2 {
		t.Fatalf("completion %+v, want tag 2", comps[0])
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	// Two reads in the same row: the second should complete quickly after
	// the first (row hit). A read to a different row in the same bank pays
	// PRE+ACT.
	cfgD := testCfg()
	c := newCtl(t, cfgD)
	c.EnqueueRead(0x0, 0, 0)
	c.EnqueueRead(0x0+4096, 0, 1) // same row (within 8KB row, different column)
	comps := run(t, c, 2, 2000)
	gap := comps[1].Done - comps[0].Done
	if gap > int64(cfgD.Timing.TCCDL)+8 {
		t.Errorf("row-hit gap = %d cycles, expected near tCCD", gap)
	}
}

func TestReadPriorityOverWrites(t *testing.T) {
	c := newCtl(t, testCfg())
	// A few writes then a read: the read should not wait for all writes.
	for i := 0; i < 8; i++ {
		if err := c.EnqueueWrite(uint64(i)*1<<20, 0); err != nil {
			t.Fatal(err)
		}
	}
	c.EnqueueRead(0x5000, 0, 0)
	comps := run(t, c, 1, 2000)
	if c.WritesCompleted >= 8 {
		t.Errorf("all %d writes drained before the read completed at %d", c.WritesCompleted, comps[0].Done)
	}
}

func TestWriteDrainWatermark(t *testing.T) {
	cfgD := testCfg()
	c := newCtl(t, cfgD)
	high := int(float64(cfgD.WriteQueueEntries) * cfgD.WriteDrainHigh)
	for i := 0; i <= high; i++ {
		if err := c.EnqueueWrite(uint64(i)*128*64, 0); err != nil {
			t.Fatal(err)
		}
	}
	for cyc := int64(0); cyc < 5000 && c.WriteQueueLen() > 0; cyc++ {
		c.Tick(cyc)
	}
	if c.WriteQueueLen() != 0 {
		t.Fatalf("write queue not drained: %v", c)
	}
	if c.DrainEpisodes == 0 {
		t.Error("no drain episode recorded despite crossing high watermark")
	}
}

func TestReadForwardedFromWriteQueue(t *testing.T) {
	c := newCtl(t, testCfg())
	c.EnqueueWrite(0x2000, 0)
	fwd, err := c.EnqueueRead(0x2010, 0, 0) // same line
	if err != nil {
		t.Fatal(err)
	}
	if !fwd {
		t.Error("read to pending write line not forwarded")
	}
	if c.ReadsForwarded != 1 {
		t.Errorf("ReadsForwarded = %d", c.ReadsForwarded)
	}
}

func TestWriteCoalescing(t *testing.T) {
	c := newCtl(t, testCfg())
	c.EnqueueWrite(0x3000, 0)
	c.EnqueueWrite(0x3020, 0) // same line
	if c.WriteQueueLen() != 1 {
		t.Errorf("write queue = %d entries, want 1 (coalesced)", c.WriteQueueLen())
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	cfgD := testCfg()
	c := newCtl(t, cfgD)
	var err error
	for i := 0; i <= cfgD.ReadQueueEntries; i++ {
		_, err = c.EnqueueRead(uint64(i)*128*64, 0, int32(i))
		if i < cfgD.ReadQueueEntries && err != nil {
			t.Fatalf("enqueue %d failed early: %v", i, err)
		}
	}
	if err != ErrQueueFull {
		t.Errorf("overfull enqueue error = %v, want ErrQueueFull", err)
	}
}

func TestAllReadsEventuallyComplete(t *testing.T) {
	c := newCtl(t, testCfg())
	want := make(map[int32]bool)
	var cycle int64
	for i := 0; i < 200; i++ {
		// Mixed pattern: some row hits, some conflicts, both ranks.
		addr := uint64(i%7)*1<<21 + uint64(i)*64
		for {
			fwd, err := c.EnqueueRead(addr, cycle, int32(i))
			if err == nil {
				if !fwd {
					want[int32(i)] = true
				}
				break
			}
			for _, comp := range c.Tick(cycle) {
				delete(want, comp.Tag)
			}
			cycle++
		}
	}
	for len(want) > 0 && cycle < 200000 {
		for _, comp := range c.Tick(cycle) {
			delete(want, comp.Tag)
		}
		cycle++
	}
	if len(want) != 0 {
		t.Fatalf("%d reads never completed", len(want))
	}
}

func TestRefreshProgress(t *testing.T) {
	cfgD := testCfg()
	cfgD.RefreshEnabled = true
	c := newCtl(t, cfgD)
	// Run past several tREFI windows with a trickle of reads; everything
	// must still complete and refreshes must be issued.
	var cycle int64
	completed := 0
	issued := 0
	for cycle = 0; cycle < 4*int64(cfgD.Timing.TREFI); cycle++ {
		if cycle%512 == 0 && c.CanEnqueueRead() {
			c.EnqueueRead(uint64(cycle)*64, cycle, int32(issued))
			issued++
		}
		completed += len(c.Tick(cycle))
	}
	if c.Channel().NumREF == 0 {
		t.Error("no refreshes issued across multiple tREFI windows")
	}
	if completed < issued-int(c.ReadQueueLen()) || completed == 0 {
		t.Errorf("reads completed = %d of %d issued", completed, issued)
	}
}

func TestAvgReadLatency(t *testing.T) {
	c := newCtl(t, testCfg())
	if c.AvgReadLatency() != 0 {
		t.Error("idle controller has nonzero avg latency")
	}
	c.EnqueueRead(0, 0, 0)
	run(t, c, 1, 1000)
	if c.AvgReadLatency() <= 0 {
		t.Error("avg read latency not recorded")
	}
}

func TestIdle(t *testing.T) {
	c := newCtl(t, testCfg())
	if !c.Idle() {
		t.Error("fresh controller not idle")
	}
	c.EnqueueWrite(0x40, 0)
	if c.Idle() {
		t.Error("controller idle with queued write")
	}
	for cyc := int64(0); cyc < 2000 && !c.Idle(); cyc++ {
		c.Tick(cyc)
	}
	if !c.Idle() {
		t.Error("controller never drained the write")
	}
}

// ---------------------------------------------------------------------------
// Reference scheduler. refTick is Tick driven by the FR-FCFS scan as it was
// before the per-bank scan memos: scheduleFrom and olderWantsRow below are
// that scan verbatim (queues by value aside), with a map of refresh-blocked
// ranks, an unmemoized issueBound, and container/heap for completions. The
// differential test runs it beside the real controller on the same request
// stream and asserts the two never diverge.
// ---------------------------------------------------------------------------

// stdHeap drives a completionHeap through container/heap, the pop order
// the typed heap must reproduce.
type stdHeap struct{ h *completionHeap }

func (s stdHeap) Len() int           { return len(*s.h) }
func (s stdHeap) Less(i, j int) bool { return (*s.h)[i].Done < (*s.h)[j].Done }
func (s stdHeap) Swap(i, j int)      { (*s.h)[i], (*s.h)[j] = (*s.h)[j], (*s.h)[i] }
func (s stdHeap) Push(x any)         { *s.h = append(*s.h, x.(Completion)) }
func (s stdHeap) Pop() any {
	old := *s.h
	n := len(old)
	x := old[n-1]
	*s.h = old[:n-1]
	return x
}

func (c *Controller) refTick(now int64) []Completion {
	done := c.doneBuf[:0]
	for len(c.pending) > 0 && c.pending[0].Done <= now {
		done = append(done, heap.Pop(stdHeap{&c.pending}).(Completion))
	}
	c.doneBuf = done
	if c.eventDriven && !c.quietDirty && c.quietUntil > now {
		return done
	}
	if c.refIssueOne(now) {
		if c.eventDriven && c.lastIssueTick != now-1 {
			c.quietUntil = c.refIssueBound(now)
			c.quietDirty = false
		} else {
			c.quietDirty = true
		}
		c.lastIssueTick = now
	} else if c.eventDriven {
		c.quietUntil = c.refIssueBound(now)
		c.quietDirty = false
	}
	return done
}

func (c *Controller) refIssueBound(now int64) int64 {
	if (!c.draining && len(c.writeQ) >= c.drainHigh) || (c.draining && len(c.writeQ) <= c.drainLow) {
		return now + 1
	}
	next := int64(1) << 62
	for r := 0; r < c.cfg.Ranks; r++ {
		if c.ch.RefreshDue(r, now+1) {
			if t := c.nextRefreshStep(r, now); t < next {
				next = t
			}
			continue
		}
		if nr := c.ch.NextRefresh(r); nr < next {
			next = nr
		}
	}
	for i := range c.readQ {
		t := c.nextIssuable(&c.readQ[i], dram.CmdRD, now)
		if t <= now+1 {
			return now + 1
		}
		if t < next {
			next = t
		}
	}
	for i := range c.writeQ {
		t := c.nextIssuable(&c.writeQ[i], dram.CmdWR, now)
		if t <= now+1 {
			return now + 1
		}
		if t < next {
			next = t
		}
	}
	if next <= now {
		next = now + 1
	}
	return next
}

// nextIssuable lower-bounds the cycle at which the request's next command
// (column on a row hit, PRE on a conflict, ACT on a closed bank) could
// legally issue, assuming no other command issues first — which holds
// whenever the caller takes the minimum across all queued requests.
func (c *Controller) nextIssuable(req *Request, col dram.Command, now int64) int64 {
	return c.ch.EarliestIssueAt(c.nextCmd(req, col), int(req.bank), now+1)
}

func (c *Controller) refIssueOne(now int64) bool {
	refreshBlocked := make(map[int]bool, c.cfg.Ranks)
	for r := 0; r < c.cfg.Ranks; r++ {
		if !c.ch.RefreshDue(r, now) {
			continue
		}
		refreshBlocked[r] = true
		if c.tryRefresh(r, now) {
			return true
		}
	}
	if !c.draining && len(c.writeQ) >= c.drainHigh {
		c.draining = true
		c.DrainEpisodes++
		c.touch()
	}
	if c.draining && len(c.writeQ) <= c.drainLow {
		c.draining = false
		c.touch()
	}
	primary, secondary := c.readQ, c.writeQ
	primaryIsWrite := false
	if c.draining || len(c.readQ) == 0 {
		primary, secondary = c.writeQ, c.readQ
		primaryIsWrite = true
	}
	if c.refScheduleFrom(primary, primaryIsWrite, refreshBlocked, now) {
		return true
	}
	return c.refScheduleFrom(secondary, !primaryIsWrite, refreshBlocked, now)
}

func (c *Controller) refScheduleFrom(q []Request, isWrite bool, blocked map[int]bool, now int64) bool {
	col := dram.CmdRD
	if isWrite {
		col = dram.CmdWR
	}
	// Pass 1: row hits, oldest first.
	for i, req := range q {
		if blocked[req.loc.Rank] {
			continue
		}
		row, open := c.ch.OpenRow(req.loc)
		if open && row == req.loc.Row && c.ch.CanIssue(col, req.loc, now) {
			c.refIssueColumn(req, col, i, isWrite, now, true)
			return true
		}
	}
	// Pass 2: progress for the oldest schedulable request.
	for i, req := range q {
		if blocked[req.loc.Rank] {
			continue
		}
		row, open := c.ch.OpenRow(req.loc)
		switch {
		case open && row == req.loc.Row:
			continue
		case open:
			if olderWantsRow(q[:i], req.loc, row) {
				continue
			}
			if c.ch.CanIssue(dram.CmdPRE, req.loc, now) {
				c.ch.Issue(dram.CmdPRE, req.loc, now)
				c.ch.RecordRowOutcome(false, true)
				c.touch()
				return true
			}
		default:
			if c.ch.CanIssue(dram.CmdACT, req.loc, now) {
				c.ch.Issue(dram.CmdACT, req.loc, now)
				c.ch.RecordRowOutcome(false, false)
				c.touch()
				return true
			}
		}
	}
	return false
}

// olderWantsRow reports whether any request in older targets the given
// bank's currently open row.
func olderWantsRow(older []Request, loc dram.Loc, openRow uint32) bool {
	for _, r := range older {
		if r.loc.Rank == loc.Rank && r.loc.BankGroup == loc.BankGroup &&
			r.loc.Bank == loc.Bank && r.loc.Row == openRow {
			return true
		}
	}
	return false
}

func (c *Controller) refIssueColumn(req Request, col dram.Command, idx int, isWrite bool, now int64, rowHit bool) {
	c.touch()
	done := c.ch.Issue(col, req.loc, now)
	if rowHit {
		c.ch.RecordRowOutcome(true, false)
	}
	if isWrite {
		c.writeQ = append(c.writeQ[:idx], c.writeQ[idx+1:]...)
		c.WritesCompleted++
		return
	}
	c.readQ = append(c.readQ[:idx], c.readQ[idx+1:]...)
	c.ReadsCompleted++
	c.ReadLatencySum += uint64(done - req.Arrival)
	heap.Push(stdHeap{&c.pending}, Completion{Tag: req.Tag, Done: done})
}

// ---------------------------------------------------------------------------
// Seeded synthetic request streams.
// ---------------------------------------------------------------------------

// pattern shapes a synthetic request stream. Each request picks a rank
// uniformly, one of the first hotBanks banks of that rank, and one of rows
// rows, so few hot banks and rows mean frequent row hits and many rows
// mean frequent conflicts.
type pattern struct {
	name      string
	hotBanks  int
	rows      int
	writeFrac float64
	rate      float64 // mean requests offered per cycle, up to 2
	refresh   bool
}

var patterns = []pattern{
	{name: "rowhit", hotBanks: 4, rows: 2, writeFrac: 0.3, rate: 0.6},
	{name: "conflict", hotBanks: 2, rows: 16, writeFrac: 0.3, rate: 0.6, refresh: true},
	{name: "drain", hotBanks: 64, rows: 8, writeFrac: 0.8, rate: 1.2, refresh: true},
	{name: "mixed", hotBanks: 8, rows: 4, writeFrac: 0.4, rate: 0.8, refresh: true},
	{name: "sparse", hotBanks: 64, rows: 64, writeFrac: 0.3, rate: 0.02, refresh: true},
}

// stream draws requests for one channel geometry from a pattern.
type stream struct {
	p   pattern
	cfg config.DRAM
	m   *dram.AddressMapper
	rng *rand.Rand
}

func newStream(t testing.TB, cfg config.DRAM, p pattern, seed uint64) *stream {
	m, err := dram.NewAddressMapper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &stream{p: p, cfg: cfg, m: m, rng: rand.New(rand.NewPCG(seed, 0x5ec))}
}

// next returns the address and direction of the next request.
func (s *stream) next() (uint64, bool) {
	k := s.rng.IntN(min(s.p.hotBanks, s.cfg.Banks))
	loc := dram.Loc{
		Rank:      s.rng.IntN(s.cfg.Ranks),
		BankGroup: k % s.cfg.BankGroups,
		Bank:      k / s.cfg.BankGroups,
		Row:       uint32(s.rng.IntN(s.p.rows)),
		Col:       uint32(s.rng.IntN(s.m.LinesPerRow())),
	}
	return s.m.Unmap(0, loc), s.rng.Float64() < s.p.writeFrac
}

// arrivals returns how many requests the stream offers this cycle.
func (s *stream) arrivals() int {
	n := 0
	for r := s.p.rate; r > 0; r-- {
		if s.rng.Float64() < r {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// Differential oracle: new scheduler vs reference.
// ---------------------------------------------------------------------------

// diffConfig is the DRAM configuration of one differential case: a short
// tREFI so refresh sequences recur many times in a few thousand cycles.
func diffConfig(base config.DRAM, ranks int, refresh bool) config.DRAM {
	d := base
	d.Ranks = ranks
	d.RefreshEnabled = refresh
	d.Timing.TREFI = 2500
	return d
}

// TestSchedulerMatchesReference drives the controller and the reference
// scheduler with identical seeded request streams — row-hit heavy,
// conflict heavy, crossing the write-drain watermarks, dense and sparse,
// with and without refresh — on DDR4 and DDR5 geometries with 1, 2 and 4
// ranks, in tick-loop and event-driven mode, and asserts after every Tick
// that completions, channel counters, controller statistics and NextEvent
// are identical, and so is DebugState — the queues and every bank's timing
// state — every stateEvery cycles and at the end.
//
// Short mode keeps the cycle budget, which must span tREFI for the refresh
// cases to issue a REF, and runs one rank count per geometry instead; every
// case it runs keeps the seed it has in the full matrix.
func TestSchedulerMatchesReference(t *testing.T) {
	const cycles = 4000
	geoms := []struct {
		name       string
		dram       config.DRAM
		shortRanks int // the rank count short mode runs
	}{
		{"ddr4", config.Table1(config.ModeUnprotected).DRAM, 2},
		{"ddr5", config.Table1DDR5(config.ModeUnprotected).DRAM, 4},
	}
	seed := uint64(1)
	for _, g := range geoms {
		for _, ranks := range []int{1, 2, 4} {
			for _, p := range patterns {
				for _, event := range []bool{false, true} {
					seed++
					if testing.Short() && ranks != g.shortRanks {
						continue
					}
					cfg := diffConfig(g.dram, ranks, p.refresh)
					name := fmt.Sprintf("%s/ranks%d/%s/event=%v", g.name, ranks, p.name, event)
					t.Run(name, func(t *testing.T) {
						diffRun(t, cfg, p, event, seed, cycles)
					})
				}
			}
		}
	}
}

// ctlStats is the controller's statistics block, compared field by field.
type ctlStats struct {
	ReadsEnqueued, WritesEnqueued, ReadsForwarded   uint64
	ReadLatencySum, ReadsCompleted, WritesCompleted uint64
	DrainEpisodes                                   uint64
}

func statsOf(c *Controller) ctlStats {
	return ctlStats{c.ReadsEnqueued, c.WritesEnqueued, c.ReadsForwarded,
		c.ReadLatencySum, c.ReadsCompleted, c.WritesCompleted, c.DrainEpisodes}
}

// stateEvery is how often diffRun compares DebugState, whose rendering
// costs far more than the rest of a differential cycle.
const stateEvery = 16

// differ runs the controller beside the reference scheduler: each
// operation is applied to both, the outcomes are compared, and the
// controller's per-bank summaries are checked against a recount.
type differ struct {
	t        testing.TB
	got, ref *Controller
	tags     int32 // the last read's tag
	// Recount scratch, one entry per bank, reused by every check.
	n, hits []int32
	head    []*Request
}

func newDiffer(t testing.TB, cfg config.DRAM, event bool) *differ {
	got, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := New(cfg)
	got.SetEventDriven(event)
	ref.SetEventDriven(event)
	nbanks := cfg.Ranks * cfg.Banks
	return &differ{t: t, got: got, ref: ref,
		n: make([]int32, nbanks), hits: make([]int32, nbanks), head: make([]*Request, nbanks)}
}

// enqueue offers one request to both controllers and compares the
// outcomes.
func (d *differ) enqueue(addr uint64, write bool, now int64) {
	t, got, ref := d.t, d.got, d.ref
	if write {
		e1, e2 := got.EnqueueWrite(addr, now), ref.EnqueueWrite(addr, now)
		if e1 != e2 {
			t.Fatalf("cycle %d: EnqueueWrite(%#x) = %v, reference %v", now, addr, e1, e2)
		}
	} else {
		d.tags++ // a distinct tag per read: completions compare by tag
		f1, e1 := got.EnqueueRead(addr, now, d.tags)
		f2, e2 := ref.EnqueueRead(addr, now, d.tags)
		if f1 != f2 || e1 != e2 {
			t.Fatalf("cycle %d: EnqueueRead(%#x) = (%v,%v), reference (%v,%v)",
				now, addr, f1, e1, f2, e2)
		}
	}
	d.checkSummaries(now)
}

// tick ticks both controllers at now, compares completions, channel
// counters, statistics and NextEvent, and returns the controller's
// NextEvent.
func (d *differ) tick(now int64) int64 {
	t, got, ref := d.t, d.got, d.ref
	c1 := append([]Completion(nil), got.Tick(now)...)
	c2 := append([]Completion(nil), ref.refTick(now)...)
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("cycle %d: completions %v, reference %v", now, c1, c2)
	}
	if k1, k2 := got.Channel().Counters(), ref.Channel().Counters(); !reflect.DeepEqual(k1, k2) {
		t.Fatalf("cycle %d: counters %+v, reference %+v", now, k1, k2)
	}
	if s1, s2 := statsOf(got), statsOf(ref); s1 != s2 {
		t.Fatalf("cycle %d: stats %+v, reference %+v", now, s1, s2)
	}
	n1, n2 := got.NextEvent(now), ref.NextEvent(now)
	if n1 != n2 {
		t.Fatalf("cycle %d: NextEvent %d, reference %d", now, n1, n2)
	}
	d.checkSummaries(now)
	return n1
}

// checkState compares DebugState — the queues and every bank's timing
// state — whose rendering costs more than the rest of an operation.
func (d *differ) checkState(now int64) {
	if d1, d2 := d.got.DebugState(), d.ref.DebugState(); d1 != d2 {
		d.t.Fatalf("cycle %d: state diverged\n got: %s\n ref: %s", now, d1, d2)
	}
}

// checkSummaries recounts both queues' per-bank summaries from the queued
// requests and the channel's open rows — request count, row hits, the
// oldest request's ID, row, rank and location, and both bitmasks — and
// fails on any difference. A bank with no queued request has no head to
// compare.
func (d *differ) checkSummaries(now int64) {
	c := d.got
	for qi, q := range [2][]Request{c.readQ, c.writeQ} {
		s := &c.sum[qi]
		n, hits, head := d.n, d.hits, d.head
		clear(n)
		clear(hits)
		clear(head)
		for i := range q {
			b := q[i].bank
			if head[b] == nil {
				head[b] = &q[i]
			}
			n[b]++
			if row, open := c.ch.OpenRowAt(int(b)); open && q[i].loc.Row == row {
				hits[b]++
			}
		}
		for b, bq := range s.banks {
			if bq.n != n[b] || bq.hits != hits[b] {
				d.t.Fatalf("cycle %d: queue %d bank %d: n=%d hits=%d, recount n=%d hits=%d",
					now, qi, b, bq.n, bq.hits, n[b], hits[b])
			}
			if h := head[b]; h != nil && (bq.headID != h.ID || bq.headRow != h.loc.Row ||
				int(bq.rank) != h.loc.Rank || s.headLoc[b] != h.loc) {
				d.t.Fatalf("cycle %d: queue %d bank %d: head %d row %d rank %d loc %+v, recount %d loc %+v",
					now, qi, b, bq.headID, bq.headRow, bq.rank, s.headLoc[b], h.ID, h.loc)
			}
			occ, hit := s.occupied[b>>6]>>uint(b&63)&1 != 0, s.hasHits[b>>6]>>uint(b&63)&1 != 0
			if occ != (n[b] > 0) || hit != (hits[b] > 0) {
				d.t.Fatalf("cycle %d: queue %d bank %d: occupied=%v hasHits=%v, recount n=%d hits=%d",
					now, qi, b, occ, hit, n[b], hits[b])
			}
		}
	}
	checkHorizons(d.t, c, now)
}

// checkHorizons recomputes both eligibility sets from the channel's bank
// state and fails on any difference: each bank's horizon (row: nextPRE
// when open, nextACT when closed; col: the later of nextRD and nextWR),
// its bit in the mask as of the set's clock, which may run one cycle ahead
// of now (issueBound brings the sets to now+1) and no further, and the
// set's next expiry, which must not pass any pending bank's horizon.
func checkHorizons(t testing.TB, c *Controller, now int64) {
	for _, set := range []struct {
		name string
		h    *horizonSet
	}{{"row", &c.row}, {"col", &c.col}} {
		h := set.h
		if h.now > now+1 {
			t.Fatalf("cycle %d: %s set advanced to %d", now, set.name, h.now)
		}
		for b := range h.at {
			var want int64
			if set.h == &c.col {
				want = max(c.ch.OwnHorizon(dram.CmdRD, b), c.ch.OwnHorizon(dram.CmdWR, b))
			} else if _, open := c.ch.OpenRowAt(b); open {
				want = c.ch.OwnHorizon(dram.CmdPRE, b)
			} else {
				want = c.ch.OwnHorizon(dram.CmdACT, b)
			}
			ok := h.ok[b>>6]>>uint(b&63)&1 != 0
			if h.at[b] != want || ok != (want <= h.now) || (!ok && h.next > want) {
				t.Fatalf("cycle %d: %s set bank %d: horizon %d eligible=%v as of cycle %d (next expiry %d), recount horizon %d",
					now, set.name, b, h.at[b], ok, h.now, h.next, want)
			}
		}
		for b := len(h.at); b < len(h.ok)*64; b++ {
			if h.ok[b>>6]>>uint(b&63)&1 != 0 {
				t.Fatalf("cycle %d: %s set marks bank %d of %d eligible", now, set.name, b, len(h.at))
			}
		}
	}
}

func diffRun(t *testing.T, cfg config.DRAM, p pattern, event bool, seed uint64, cycles int64) {
	d := newDiffer(t, cfg, event)
	got := d.got
	s := newStream(t, cfg, p, seed)
	enqueue := func(now int64) {
		for n := s.arrivals(); n > 0; n-- {
			addr, write := s.next()
			d.enqueue(addr, write, now)
		}
	}
	for now := int64(0); now < cycles; {
		// Requests arrive both before the cycle's scheduler pass (engine
		// backlog) and after it.
		before := s.rng.IntN(2) == 0
		if before {
			enqueue(now)
		}
		n1 := d.tick(now)
		if !before {
			enqueue(now)
		}
		next := now + 1
		if event && s.rng.IntN(2) == 0 {
			// Event-driven callers may jump the clock up to the next
			// event; half the time, do, but no more than 64 cycles so
			// sparse streams still see arrivals.
			next = min(n1, now+1+int64(s.rng.IntN(64)))
		}
		if now/stateEvery != next/stateEvery || next >= cycles {
			d.checkState(now)
		}
		now = next
	}
	k := got.Channel().Counters()
	if k.RD+k.WR == 0 {
		t.Fatalf("stream issued no column command: %+v", k)
	}
	if p.refresh && k.REF == 0 {
		t.Fatalf("refresh-enabled stream issued no REF: %+v", k)
	}
	if p.writeFrac >= 0.5 && got.DrainEpisodes == 0 {
		t.Fatalf("write-heavy stream never crossed the drain watermark")
	}
}

// TestAdoptedChannelMatchesReference runs a controller until its channel
// has banks inside tRAS (open, PRE not yet legal) and inside tRP (closed,
// ACT not yet legal), as a drained warmup can leave it, and grafts that
// channel into a fresh controller (AdoptChannel) and a fresh reference
// (dram.Channel.AdoptState). The two then run one request stream side by
// side with every differential check, the eligibility sets included, on
// DDR4 and DDR5 in tick-loop and event-driven mode.
func TestAdoptedChannelMatchesReference(t *testing.T) {
	geoms := []struct {
		name string
		dram config.DRAM
	}{
		{"ddr4", config.Table1(config.ModeUnprotected).DRAM},
		{"ddr5", config.Table1DDR5(config.ModeUnprotected).DRAM},
	}
	seed := uint64(200)
	for _, g := range geoms {
		for _, event := range []bool{false, true} {
			seed++
			cfg := diffConfig(g.dram, 2, true)
			t.Run(fmt.Sprintf("%s/event=%v", g.name, event), func(t *testing.T) {
				src := newCtl(t, cfg)
				s := newStream(t, cfg, patterns[1], seed) // conflict: many PREs and ACTs
				now, midRAS, midRP := int64(0), false, false
				for ; now < 20000 && !(midRAS && midRP); now++ {
					for n := s.arrivals(); n > 0; n-- {
						addr, write := s.next()
						if write {
							_ = src.EnqueueWrite(addr, now)
						} else {
							_, _ = src.EnqueueRead(addr, now, 0)
						}
					}
					src.Tick(now)
					midRAS, midRP = false, false
					for b := range cfg.Ranks * cfg.Banks {
						_, open := src.ch.OpenRowAt(b)
						midRAS = midRAS || (open && src.ch.OwnHorizon(dram.CmdPRE, b) > now+1)
						midRP = midRP || (!open && src.ch.OwnHorizon(dram.CmdACT, b) > now+1)
					}
				}
				if !(midRAS && midRP) {
					t.Fatalf("no cycle left banks inside both tRAS and tRP")
				}
				d := newDiffer(t, cfg, event)
				d.got.AdoptChannel(src.Channel())
				d.ref.ch.AdoptState(src.Channel())
				d.checkSummaries(now)
				d.checkState(now)
				for end := now + 3000; now < end; {
					for n := s.arrivals(); n > 0; n-- {
						addr, write := s.next()
						d.enqueue(addr, write, now)
					}
					next := d.tick(now)
					if !event || s.rng.IntN(2) == 0 {
						next = now + 1
					}
					if now/stateEvery != next/stateEvery {
						d.checkState(now)
					}
					now = min(next, now+64)
				}
				d.checkState(now)
			})
		}
	}
}

// FuzzSchedulerMatchesReference decodes the input into enqueue and tick
// operations and runs the controller and the reference scheduler side by
// side, with the same per-operation comparisons and summary checks as
// TestSchedulerMatchesReference. The first byte picks the geometry (DDR4
// or DDR5, 1, 2 or 4 ranks), event-driven mode and refresh (shortened to
// recur within an input). After that,
// a byte below 0x80 enqueues a request: bit 0 picks a write, bits 1-6 a
// bank, and the next byte a row (bits 0-2) and a column (bits 3-7). A
// byte from 0x80 up ticks through its low seven bits plus one cycles; in
// event-driven mode the clock jumps to NextEvent within that span. An
// input runs for at most fuzzCycles cycles, so each execution stays short
// enough for the fuzzer to minimize inputs; DebugState, whose rendering
// costs more than the rest, is compared once at the end.
func FuzzSchedulerMatchesReference(f *testing.F) {
	const fuzzCycles = 500
	rng := rand.New(rand.NewPCG(5, 5))
	for seed := 0; seed < 8; seed++ {
		in := []byte{byte(seed * 5)}
		for len(in) < 100 {
			if rng.IntN(3) == 0 {
				in = append(in, 0x80|byte(rng.IntN(32)))
			} else {
				in = append(in, byte(rng.IntN(0x80)), byte(rng.IntN(256)))
			}
		}
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		sel := in[0]
		cfg := config.Table1(config.ModeUnprotected).DRAM
		if sel&1 != 0 {
			cfg = config.Table1DDR5(config.ModeUnprotected).DRAM
		}
		cfg = diffConfig(cfg, []int{1, 2, 4, 2}[sel>>1&3], sel&8 != 0)
		// Refresh every few hundred cycles, so short inputs still reach
		// refresh sequences.
		cfg.Timing.TREFI, cfg.Timing.TRFC = 300, 60
		event := sel&16 != 0
		d := newDiffer(t, cfg, event)
		m, err := dram.NewAddressMapper(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var now int64
		for i := 1; i < len(in) && now < fuzzCycles; i++ {
			x := in[i]
			if x >= 0x80 {
				for end := now + int64(x&0x7f) + 1; now < end; {
					next := d.tick(now)
					if !event {
						next = now + 1
					}
					now = min(next, end)
				}
				continue
			}
			var rc byte
			if i+1 < len(in) {
				i++
				rc = in[i]
			}
			k := int(x >> 1 & 63)
			loc := dram.Loc{
				Rank:      k % cfg.Ranks,
				BankGroup: k / cfg.Ranks % cfg.BankGroups,
				Bank:      k / cfg.Ranks / cfg.BankGroups % cfg.BanksPerGroup(),
				Row:       uint32(rc & 7),
				Col:       uint32(rc>>3) % uint32(m.LinesPerRow()),
			}
			d.enqueue(m.Unmap(0, loc), x&1 != 0, now)
		}
		d.checkState(now)
	})
}

// TestCompletionHeapMatchesContainerHeap pushes and pops completions with
// many equal Done values through the typed heap and through container/heap
// and asserts the same pop order, ties included.
func TestCompletionHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	var typed, std completionHeap
	for i := 0; i < 5000; i++ {
		if len(typed) == 0 || rng.IntN(3) != 0 {
			c := Completion{Tag: int32(i), Done: int64(rng.IntN(20))}
			typed.push(c)
			heap.Push(stdHeap{&std}, c)
			continue
		}
		a, b := typed.pop(), heap.Pop(stdHeap{&std}).(Completion)
		if a != b {
			t.Fatalf("pop %d: typed heap %+v, container/heap %+v", i, a, b)
		}
	}
}

// ---------------------------------------------------------------------------
// Benchmarks and the allocation guard.
// ---------------------------------------------------------------------------

// saturate offers up to eight stream requests while either queue has a
// free slot; requests aimed at a full queue are refused.
func saturate(c *Controller, s *stream, now int64) {
	for tries := 0; tries < 8 && (c.CanEnqueueRead() || c.CanEnqueueWrite()); tries++ {
		addr, write := s.next()
		if write {
			c.EnqueueWrite(addr, now)
		} else {
			c.EnqueueRead(addr, now, 0)
		}
	}
}

// saturatedCtl returns an event-driven controller on the Table I geometry,
// run for warm cycles with its queues kept full, and the stream feeding it.
func saturatedCtl(t testing.TB, warm int64) (*Controller, *stream, int64) {
	cfg := config.Table1(config.ModeUnprotected).DRAM
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.SetEventDriven(true)
	s := newStream(t, cfg, patterns[3], 42) // mixed
	var now int64
	for ; now < warm; now++ {
		saturate(c, s, now)
		c.Tick(now)
	}
	return c, s, now
}

// fillTo offers stream requests until the two queues hold depth requests
// between them, at most eight per call.
func fillTo(c *Controller, s *stream, now int64, depth int) {
	for tries := 0; tries < 8 && c.ReadQueueLen()+c.WriteQueueLen() < depth; tries++ {
		addr, write := s.next()
		if write {
			c.EnqueueWrite(addr, now)
		} else {
			c.EnqueueRead(addr, now, 0)
		}
	}
}

// BenchmarkControllerTick times one Controller.Tick. saturated keeps both
// queues full, so every Tick runs the FR-FCFS scan over 64-entry queues;
// table1 keeps 24 requests queued between the two queues, the depth the
// Fig. 6 grid's points run at (16-32); quiet offers a request every few
// hundred cycles and jumps the clock to NextEvent, the event-driven loop's
// quiet-span path.
func BenchmarkControllerTick(b *testing.B) {
	b.Run("saturated", func(b *testing.B) {
		c, s, now := saturatedCtl(b, 20000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			saturate(c, s, now)
			c.Tick(now)
			now++
		}
	})
	b.Run("table1", func(b *testing.B) {
		const depth = 24
		cfg := config.Table1(config.ModeUnprotected).DRAM
		c, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		c.SetEventDriven(true)
		s := newStream(b, cfg, patterns[3], 42) // mixed
		var now int64
		for ; now < 20000; now++ {
			fillTo(c, s, now, depth)
			c.Tick(now)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fillTo(c, s, now, depth)
			c.Tick(now)
			now++
		}
	})
	b.Run("quiet", func(b *testing.B) {
		cfg := config.Table1(config.ModeUnprotected).DRAM
		c, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		c.SetEventDriven(true)
		s := newStream(b, cfg, patterns[4], 42) // sparse
		var now, arrive int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if now >= arrive {
				addr, write := s.next()
				if write {
					c.EnqueueWrite(addr, now)
				} else {
					c.EnqueueRead(addr, now, 0)
				}
				arrive = now + 100 + int64(s.rng.IntN(400))
			}
			c.Tick(now)
			now = min(c.NextEvent(now), arrive)
		}
	})
}

// TestTickAllocsSaturated guards the steady state: with both queues full
// and refilled every cycle, Tick (enqueues included) allocates nothing.
func TestTickAllocsSaturated(t *testing.T) {
	c, s, now := saturatedCtl(t, 20000)
	allocs := testing.AllocsPerRun(2000, func() {
		saturate(c, s, now)
		c.Tick(now)
		now++
	})
	if allocs != 0 {
		t.Fatalf("saturated Tick allocates %v times per cycle, want 0", allocs)
	}
}

// TestRequestSize guards the queue entry's size: the queues hold requests
// by value, and one more field would push every entry past 64 bytes.
func TestRequestSize(t *testing.T) {
	if n := unsafe.Sizeof(Request{}); n > 64 {
		t.Fatalf("Request is %d bytes, want at most 64", n)
	}
}
