// Package memctrl implements the memory controller from Table I of the
// paper: 64-entry read and write queues per channel, FR-FCFS scheduling
// with row-hit-first and read-over-write priority, watermark-based write
// draining, read-around-write forwarding, and refresh management. It drives
// the cycle-level dram.Channel command interface.
package memctrl

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"

	"secddr/internal/config"
	"secddr/internal/dram"
)

// ErrQueueFull is returned when the target queue has no free entry; the
// caller must apply backpressure and retry.
var ErrQueueFull = errors.New("memctrl: queue full")

// Request is one line-granularity memory request. The queues hold requests
// by value; the field order keeps the struct at 64 bytes.
type Request struct {
	ID      uint64 // enqueue order: queue order is ID order
	Addr    uint64
	Arrival int64 // memory cycle at enqueue
	loc     dram.Loc
	bank    int32 // channel-wide bank index (dram.Channel.BankIndex) of loc
	Tag     int32 // a read's caller tag (EnqueueRead), echoed in its Completion
}

// Completion reports a finished read by the tag it was enqueued with.
type Completion struct {
	Tag  int32
	Done int64 // memory cycle the data burst completed
}

// Controller owns one channel.
type Controller struct {
	cfg    config.DRAM
	ch     *dram.Channel
	mapper *dram.AddressMapper

	readQ  []Request
	writeQ []Request
	// sum summarizes each queue per bank: sum[0] the read queue, sum[1]
	// the write queue (index writeIdx). The scheduler and issueBound walk
	// these instead of the queued requests.
	sum [2]queueSummary

	draining  bool
	drainHigh int // write-drain high watermark, in queue entries
	drainLow  int // write-drain low watermark, in queue entries
	pending   completionHeap
	nextID    uint64
	doneBuf   []Completion // reused backing array for Tick's return value

	// ready is pass-1 scratch, a bitmask over channel-wide bank indices
	// rewritten by every scheduleFrom: banks whose column command can
	// issue this cycle. What it holds between scans is never read.
	ready []uint64
	needs []need // issueBound scratch: commands whose check waits

	// row and col index the banks by their own horizons (eligible.go):
	// row holds each bank's horizon for the row command its state needs
	// (PRE when open, ACT when closed), col its tRCD horizon for RD and WR.
	// The scheduler visits only eligible banks and leaves their own
	// horizons to these sets; a command to a bank re-files it (rearm).
	row, col horizonSet

	// quietUntil memoizes the issue-side bound Tick computes after a no-op
	// scheduler scan: no command can issue before it, so scans are skipped
	// until the clock reaches it or the issue state mutates (quietDirty,
	// set by every enqueue, issued command, and drain toggle — but not by
	// completion pops, which never change issue legality). Maintained and
	// consulted only in event-driven mode.
	quietUntil    int64
	quietDirty    bool
	eventDriven   bool
	lastIssueTick int64 // cycle of the most recent issued command

	// Scans counts scheduler scans: Ticks that ran issueOne. A work
	// counter for the host cost of scheduling; it feeds no simulated
	// result.
	Scans uint64

	// Stats.
	ReadsEnqueued   uint64
	WritesEnqueued  uint64
	ReadsForwarded  uint64 // reads served from the write queue
	ReadLatencySum  uint64 // memory cycles, enqueue to data
	ReadsCompleted  uint64
	WritesCompleted uint64
	DrainEpisodes   uint64
}

// New constructs a controller with a fresh channel for cfg.
func New(cfg config.DRAM) (*Controller, error) {
	ch, err := dram.NewChannel(cfg)
	if err != nil {
		return nil, err
	}
	mapper, err := dram.NewAddressMapper(cfg)
	if err != nil {
		return nil, err
	}
	nbanks := cfg.Ranks * cfg.Banks
	// The hysteresis thresholds are derived once: the quiet-span machinery
	// and the scheduler must agree on them exactly, or event-driven runs
	// would diverge from the reference loop.
	high, low := cfg.DrainThresholds()
	return &Controller{
		cfg:       cfg,
		ch:        ch,
		mapper:    mapper,
		sum:       [2]queueSummary{newQueueSummary(cfg), newQueueSummary(cfg)},
		ready:     make([]uint64, maskWords(nbanks)),
		needs:     make([]need, 0, 2*nbanks),
		row:       newHorizonSet(nbanks),
		col:       newHorizonSet(nbanks),
		drainHigh: high,
		drainLow:  low,
	}, nil
}

// writeIdx is the index of the write queue's summary in Controller.sum;
// the read queue's is 0.
const writeIdx = 1

// bankQueue summarizes one queue's requests to one bank.
type bankQueue struct {
	n       int32  // queued requests to the bank
	hits    int32  // of them, those targeting the bank's open row
	headRow uint32 // row of the oldest queued request to the bank
	rank    int32  // the bank's rank, fixed at construction
	headID  uint64 // ID of the oldest queued request to the bank
}

// queueSummary is one queue seen per channel-wide bank (BankIndex). Queue
// order is ID order, so each bank's head is its oldest request. An enqueue
// and a column issue update it in O(1) — a head leaving costs one queue
// walk to find its successor — and an ACT or PRE recounts only that bank's
// hits. The bitmasks let scans visit only the banks that matter.
type queueSummary struct {
	banks    []bankQueue
	headLoc  []dram.Loc // each bank's head location, read only to issue ACT/PRE
	occupied []uint64   // bit b set iff banks[b].n > 0
	hasHits  []uint64   // bit b set iff banks[b].hits > 0
}

func newQueueSummary(cfg config.DRAM) queueSummary {
	nbanks := cfg.Ranks * cfg.Banks
	s := queueSummary{
		banks:    make([]bankQueue, nbanks),
		headLoc:  make([]dram.Loc, nbanks),
		occupied: make([]uint64, maskWords(nbanks)),
		hasHits:  make([]uint64, maskWords(nbanks)),
	}
	for b := range s.banks {
		s.banks[b].rank = int32(b / cfg.Banks)
	}
	return s
}

// add folds a request appended to the queue into the summary; hit says
// whether it targets its bank's open row.
func (s *queueSummary) add(req *Request, hit bool) {
	b := int(req.bank)
	bq := &s.banks[b]
	if bq.n == 0 {
		bq.headID, bq.headRow = req.ID, req.loc.Row
		s.headLoc[b] = req.loc
		setBit(s.occupied, b)
	}
	bq.n++
	if hit {
		bq.hits++
		setBit(s.hasHits, b)
	}
}

// removeHit takes out req, a row hit that was at index idx of q before
// its removal. If req was its bank's head, the successor is the first
// request to the bank at or after idx.
func (s *queueSummary) removeHit(q []Request, idx int, req *Request) {
	b := int(req.bank)
	bq := &s.banks[b]
	bq.n--
	if bq.hits--; bq.hits == 0 {
		clearBit(s.hasHits, b)
	}
	if bq.n == 0 {
		clearBit(s.occupied, b)
		return
	}
	if bq.headID != req.ID {
		return
	}
	for i := idx; ; i++ {
		if h := &q[i]; h.bank == req.bank {
			bq.headID, bq.headRow = h.ID, h.loc.Row
			s.headLoc[b] = h.loc
			return
		}
	}
}

// recount recomputes bank b's hits against its open row (row, open).
func (s *queueSummary) recount(q []Request, b int, row uint32, open bool) {
	bq := &s.banks[b]
	bq.hits = 0
	if open && bq.n > 0 {
		for i := range q {
			if int(q[i].bank) == b && q[i].loc.Row == row {
				bq.hits++
			}
		}
	}
	if bq.hits > 0 {
		setBit(s.hasHits, b)
	} else {
		clearBit(s.hasHits, b)
	}
}

// rowChanged refreshes both queues' hit counts for bank b after an ACT or
// PRE changed its open row, and re-files the bank's horizons.
func (c *Controller) rowChanged(b int) {
	row, open := c.ch.OpenRowAt(b)
	c.sum[0].recount(c.readQ, b, row, open)
	c.sum[writeIdx].recount(c.writeQ, b, row, open)
	c.rearm(b)
}

// rearm re-files bank b in both eligibility sets after a command to it
// moved its own horizons. nextRD and nextWR are equal (dram.OwnHorizon),
// so the column horizon is exact for either command.
func (c *Controller) rearm(b int) {
	rowCmd := dram.CmdACT
	if _, open := c.ch.OpenRowAt(b); open {
		rowCmd = dram.CmdPRE
	}
	c.row.set(b, c.ch.OwnHorizon(rowCmd, b))
	c.col.set(b, max(c.ch.OwnHorizon(dram.CmdRD, b), c.ch.OwnHorizon(dram.CmdWR, b)))
}

func maskWords(n int) int        { return (n + 63) / 64 }
func setBit(m []uint64, b int)   { m[b>>6] |= 1 << uint(b&63) }
func clearBit(m []uint64, b int) { m[b>>6] &^= 1 << uint(b&63) }

// Channel exposes the underlying DRAM channel for reading (stats, tests).
// Its bank state must change only through the controller: AdoptChannel
// grafts another channel's state.
func (c *Controller) Channel() *dram.Channel { return c.ch }

// AdoptChannel grafts src's dynamic DRAM state onto the controller's
// channel (dram.Channel.AdoptState) and re-files every bank's own
// horizons from it. Both queues must be empty: the controller counts
// queued row hits against the open rows it replaces.
func (c *Controller) AdoptChannel(src *dram.Channel) {
	if len(c.readQ)+len(c.writeQ) != 0 {
		panic("memctrl: AdoptChannel with queued requests")
	}
	c.ch.AdoptState(src)
	for b := range c.row.at {
		c.rearm(b)
	}
}

// ReadQueueLen and WriteQueueLen return current occupancies.
func (c *Controller) ReadQueueLen() int { return len(c.readQ) }

// WriteQueueLen returns the current write-queue occupancy.
func (c *Controller) WriteQueueLen() int { return len(c.writeQ) }

// CanEnqueueRead reports whether a read slot is free.
func (c *Controller) CanEnqueueRead() bool { return len(c.readQ) < c.cfg.ReadQueueEntries }

// CanEnqueueWrite reports whether a write slot is free.
func (c *Controller) CanEnqueueWrite() bool { return len(c.writeQ) < c.cfg.WriteQueueEntries }

// touch records an issue-side state mutation: it invalidates the quiet
// bound so the next Tick re-evaluates the scheduler.
func (c *Controller) touch() { c.quietDirty = true }

// CanAccept reports, without mutating any state, whether an enqueue of
// (addr, write) would succeed right now: a free queue slot, a write-queue
// coalesce, or read-around-write forwarding all count. The engine's
// next-event computation uses it to detect that a backlogged request could
// drain on the next cycle.
func (c *Controller) CanAccept(addr uint64, write bool) bool {
	if _, queued := c.writeQueued(addr); queued {
		return true // write coalesce or read forwarding
	}
	if write {
		return c.CanEnqueueWrite()
	}
	return c.CanEnqueueRead()
}

// EnqueueRead queues a read for addr; Tick reports its data in a
// Completion carrying tag. If the line has a pending write, the read is
// served by store-forwarding: it completes immediately (forwarded true),
// never occupies a queue slot and produces no Completion.
func (c *Controller) EnqueueRead(addr uint64, now int64, tag int32) (forwarded bool, err error) {
	lineAddr, queued := c.writeQueued(addr)
	if queued {
		c.ReadsForwarded++
		return true, nil
	}
	if !c.CanEnqueueRead() {
		return false, ErrQueueFull
	}
	c.readQ = append(c.readQ, c.newRequest(lineAddr, tag, now))
	c.ReadsEnqueued++
	c.noteEnqueued(&c.readQ[len(c.readQ)-1], &c.sum[0], dram.CmdRD, now)
	return false, nil
}

// writeQueued returns addr's line address and whether the write queue
// holds a write to that line.
func (c *Controller) writeQueued(addr uint64) (lineAddr uint64, queued bool) {
	lineAddr = addr &^ uint64(c.cfg.LineBytes-1)
	for i := range c.writeQ {
		if c.writeQ[i].Addr == lineAddr {
			return lineAddr, true
		}
	}
	return lineAddr, false
}

// newRequest builds the queue entry for line lineAddr under the next ID.
func (c *Controller) newRequest(lineAddr uint64, tag int32, now int64) Request {
	c.nextID++
	_, loc := c.mapper.Map(lineAddr)
	return Request{ID: c.nextID, Addr: lineAddr, Arrival: now, loc: loc,
		bank: int32(c.ch.BankIndex(loc)), Tag: tag}
}

// noteEnqueued folds a newly queued request into the quiet bound. Adding a
// request can only add issue opportunities and touches no channel state, so
// min-ing its own earliest issue into a still-valid bound stays sound at
// O(1) instead of invalidating the span. A pending write-drain toggle, such
// as a write crossing the high watermark, must still invalidate: it is
// next-cycle scheduler work no per-request term covers. The request also
// joins its queue's summary s.
func (c *Controller) noteEnqueued(req *Request, s *queueSummary, col dram.Command, now int64) {
	row, open := c.ch.OpenRowAt(int(req.bank))
	s.add(req, open && row == req.loc.Row)
	if !c.eventDriven || c.quietDirty || c.drainToggleDue() {
		c.quietDirty = true
		return
	}
	// Anchor at now, not now+1: a request entering from the engine's
	// backlog is enqueued before this cycle's scheduler pass runs, so it
	// can legally issue in the very cycle it arrives. For enqueues that
	// land after the pass the bound is one cycle conservative, which only
	// costs a no-op wake. The bank's own horizon bounds the issue cycle
	// from below, so a horizon at or past quietUntil needs no check.
	b, cmd := int(req.bank), c.nextCmd(req, col)
	if c.ch.OwnHorizon(cmd, b) < c.quietUntil {
		c.quietUntil = min(c.quietUntil, c.ch.EarliestIssueAt(cmd, b, now))
	}
}

// EnqueueWrite queues a write-back for addr. Writes to a line already in
// the write queue coalesce into the existing entry.
func (c *Controller) EnqueueWrite(addr uint64, now int64) error {
	lineAddr, queued := c.writeQueued(addr)
	if queued {
		return nil // coalesced
	}
	if !c.CanEnqueueWrite() {
		return ErrQueueFull
	}
	c.writeQ = append(c.writeQ, c.newRequest(lineAddr, 0, now))
	c.WritesEnqueued++
	c.noteEnqueued(&c.writeQ[len(c.writeQ)-1], &c.sum[writeIdx], dram.CmdWR, now)
	return nil
}

// Idle reports whether all queues and in-flight activity are drained.
func (c *Controller) Idle() bool {
	return len(c.readQ) == 0 && len(c.writeQ) == 0 && len(c.pending) == 0
}

// ReadsIdle reports whether all reads have completed and been delivered;
// queued writes are allowed to remain. A write-queue entry carries no
// timing-relevant state — scheduling considers only bank/row state, writes
// never enter the completion heap, and Arrival feeds read latency stats
// only — so a quiescent-except-writes controller tolerates an external
// clock jump without stranding in-flight work. The sampled simulation
// mode's fast-forward relies on this to preserve steady-state write-drain
// pressure across skipped spans instead of flushing the queue and
// re-synchronizing drain bursts with its measurement windows.
func (c *Controller) ReadsIdle() bool {
	return len(c.readQ) == 0 && len(c.pending) == 0
}

// Tick advances the controller by one memory cycle: it returns reads whose
// data completed at or before now, then issues at most one DRAM command.
// The returned slice is only valid until the next Tick call.
// In event-driven mode the scheduler scan is skipped during proven-quiet
// spans: after a cycle in which nothing could issue, Tick computes the
// earliest cycle at which anything could (quietUntil) and returns
// immediately until the clock or an invalidating mutation (enqueue, issued
// command) catches up. Skipped Ticks are what event-driven advance wins:
// the scans and the bounds between them are most of the controller's
// host cost, and the controller and the channel together take about 60%
// of a Fig. 6 run's CPU (DESIGN.md, "Controller quiet spans").
func (c *Controller) Tick(now int64) []Completion {
	done := c.doneBuf[:0]
	for len(c.pending) > 0 && c.pending[0].Done <= now {
		done = append(done, c.pending.pop())
		// Completion pops never change issue legality, so quietUntil
		// survives them.
	}
	c.doneBuf = done
	if c.eventDriven && !c.quietDirty && c.quietUntil > now {
		return done
	}
	if c.issueOne(now) {
		if c.eventDriven && c.lastIssueTick != now-1 {
			// Isolated command in sparse traffic: prove the gap right away,
			// saving the next-cycle wake and its no-op scan.
			c.quietUntil = c.issueBound(now)
			c.quietDirty = false
		} else {
			// Mid-burst: commands issue nearly every cycle, so assume more
			// work next cycle rather than paying a bound computation per
			// command. The first no-op scan after the burst buys the bound.
			c.quietDirty = true
		}
		c.lastIssueTick = now
	} else if c.eventDriven {
		c.quietUntil = c.issueBound(now)
		c.quietDirty = false
	}
	return done
}

// SetEventDriven enables (or disables) quiet-span scan skipping. Off by
// default: the reference tick loop and all pre-existing callers see the
// exact per-cycle behaviour of the original controller.
func (c *Controller) SetEventDriven(v bool) { c.eventDriven = v }

// NextEvent returns the earliest memory cycle strictly after now at which
// Tick could change state: a pending read completing, or the scheduler
// having work (quietUntil). The bound is conservative — waking early just
// costs a no-op tick, while every cycle below the returned value is
// provably inert, which is what lets the simulator's event-driven loop
// skip it. O(1): when the issue-side state is dirty the answer is simply
// "next cycle", and Tick will either do the work or pay for the proof.
func (c *Controller) NextEvent(now int64) int64 {
	next := int64(1) << 62
	if len(c.pending) > 0 {
		next = c.pending[0].Done
	}
	if c.quietDirty {
		if now+1 < next {
			next = now + 1
		}
	} else if c.quietUntil < next {
		next = c.quietUntil
	}
	if next <= now {
		next = now + 1
	}
	return next
}

// issueBound returns the earliest cycle strictly after now at which
// issueOne could act: a pending write-drain toggle, the next refresh
// deadline (or the next step of an in-progress refresh sequence), or a
// queued request becoming issuable.
func (c *Controller) issueBound(now int64) int64 {
	// A watermark crossing whose toggle has not run yet is genuine
	// next-cycle work. issueOne evaluates the hysteresis before it
	// schedules, so the command it just issued can itself cross the low
	// watermark and leave a toggle pending; deferring that toggle to the
	// next wake would let an interleaved enqueue change the decision and
	// diverge from the cycle-accurate reference.
	if c.drainToggleDue() {
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
	// Each occupied bank contributes the commands its queued requests need
	// next: ACT when closed; PRE when some request misses the open row, and
	// each queue's column command when it has hits there. The earliest
	// issue cycle depends only on the bank and the command, so this is the
	// per-request minimum without visiting requests.
	//
	// A command's own horizon, and for a column command the channel's
	// column floor, bound its issue cycle from below (need.lo). The
	// commands whose bound is at most now+1 are found from the eligibility
	// masks as of now+1 and checked first; the first that can issue next
	// cycle ends the search. The others wait in c.needs and are checked
	// lowest bound first, until no bound is below the best cycle.
	rdFloor, wrFloor := c.ch.ColumnFloor(dram.CmdRD), c.ch.ColumnFloor(dram.CmdWR)
	c.row.advance(now + 1)
	c.col.advance(now + 1)
	rs, ws := &c.sum[0], &c.sum[writeIdx]
	for w := range rs.occupied {
		var rd, wr uint64
		if rdFloor <= now+1 {
			rd = rs.hasHits[w] & c.col.ok[w]
		}
		if wrFloor <= now+1 {
			wr = ws.hasHits[w] & c.col.ok[w]
		}
		for word := rd; word != 0; word &= word - 1 {
			next = min(next, c.earliest(dram.CmdRD, w<<6|bits.TrailingZeros64(word), now))
		}
		for word := wr; word != 0; word &= word - 1 {
			next = min(next, c.earliest(dram.CmdWR, w<<6|bits.TrailingZeros64(word), now))
		}
		if next <= now+1 {
			return now + 1
		}
		for word := (rs.occupied[w] | ws.occupied[w]) & c.row.ok[w]; word != 0; word &= word - 1 {
			b := w<<6 | bits.TrailingZeros64(word)
			if _, open := c.ch.OpenRowAt(b); !open {
				next = min(next, c.earliest(dram.CmdACT, b, now))
			} else if rb, wb := &rs.banks[b], &ws.banks[b]; rb.hits < rb.n || wb.hits < wb.n {
				next = min(next, c.earliest(dram.CmdPRE, b, now))
			}
			if next <= now+1 {
				return now + 1
			}
		}
	}
	c.needs = c.needs[:0]
	for w := range rs.occupied {
		for word := rs.occupied[w] | ws.occupied[w]; word != 0; word &= word - 1 {
			b := w<<6 | bits.TrailingZeros64(word)
			if _, open := c.ch.OpenRowAt(b); !open {
				c.wait(need{c.row.at[b], b, dram.CmdACT}, now, next)
				continue
			}
			rb, wb := &rs.banks[b], &ws.banks[b]
			if rb.hits < rb.n || wb.hits < wb.n {
				c.wait(need{c.row.at[b], b, dram.CmdPRE}, now, next)
			}
			if rb.hits > 0 {
				c.wait(need{max(c.col.at[b], rdFloor), b, dram.CmdRD}, now, next)
			}
			if wb.hits > 0 {
				c.wait(need{max(c.col.at[b], wrFloor), b, dram.CmdWR}, now, next)
			}
		}
	}
	for needs := c.needs; ; {
		first := -1
		for i := range needs {
			if needs[i].lo < next && (first < 0 || needs[i].lo < needs[first].lo) {
				first = i
			}
		}
		if first < 0 {
			break
		}
		next = min(next, c.earliest(needs[first].cmd, needs[first].bank, now))
		needs[first] = needs[len(needs)-1]
		needs = needs[:len(needs)-1]
	}
	if next <= now {
		next = now + 1
	}
	return next
}

// need is a command some queued request needs next, at its bank, with a
// lower bound on its issue cycle: issueBound scratch.
type need struct {
	lo   int64
	bank int
	cmd  dram.Command
}

// wait keeps n in c.needs when its lower bound lies after now+1, where
// the masks did not find it, and below next.
func (c *Controller) wait(n need, now, next int64) {
	if n.lo > now+1 && n.lo < next {
		c.needs = append(c.needs, n)
	}
}

// earliest returns the earliest cycle after now at which cmd could issue
// to bank b, whose own horizon the eligibility sets hold: the column set
// for RD and WR, the row set for the row command the bank's state needs.
func (c *Controller) earliest(cmd dram.Command, b int, now int64) int64 {
	own := c.row.at[b]
	if cmd == dram.CmdRD || cmd == dram.CmdWR {
		own = c.col.at[b]
	}
	return c.ch.EarliestIssueOwn(cmd, b, own, now+1)
}

// nextRefreshStep lower-bounds the cycle after now at which tryRefresh
// could issue its next command for a rank whose refresh deadline has
// passed. Without this bound an in-progress refresh sequence (tens of
// cycles waiting on tRAS/tRP) would collapse the controller's next event
// to now+1 and force a full scheduler scan every cycle of the wait.
func (c *Controller) nextRefreshStep(r int, now int64) int64 {
	_, _, at := c.refreshStep(r, now+1)
	return at
}

// nextCmd returns the command the request needs next: its column command
// col on a row hit, PRE on a row conflict, ACT on a closed bank.
func (c *Controller) nextCmd(req *Request, col dram.Command) dram.Command {
	row, open := c.ch.OpenRowAt(int(req.bank))
	switch {
	case open && row == req.loc.Row:
		return col
	case open:
		return dram.CmdPRE
	default:
		return dram.CmdACT
	}
}

// issueOne implements FR-FCFS with refresh priority and write draining.
// It reports whether a DRAM command was issued this cycle.
func (c *Controller) issueOne(now int64) bool {
	c.Scans++
	// Refresh has highest priority: close banks and refresh due ranks.
	// Bit r of blocked marks rank r as refresh-due: its requests wait
	// (config.DRAM.Validate caps Ranks at 64).
	var blocked uint64
	for r := 0; r < c.cfg.Ranks; r++ {
		if !c.ch.RefreshDue(r, now) {
			continue
		}
		blocked |= 1 << uint(r)
		if c.tryRefresh(r, now) {
			return true
		}
	}

	// Write-drain mode hysteresis.
	if c.drainToggleDue() {
		if !c.draining {
			c.DrainEpisodes++
		}
		c.draining = !c.draining
		c.touch()
	}

	primaryIsWrite := c.draining || len(c.readQ) == 0
	if c.scheduleFrom(primaryIsWrite, blocked, now) {
		return true
	}
	return c.scheduleFrom(!primaryIsWrite, blocked, now)
}

// drainToggleDue reports whether issueOne's write-drain hysteresis would
// flip the drain mode: the write queue has reached the high watermark
// outside a drain, or fallen to the low watermark during one.
func (c *Controller) drainToggleDue() bool {
	if c.draining {
		return len(c.writeQ) <= c.drainLow
	}
	return len(c.writeQ) >= c.drainHigh
}

// tryRefresh makes progress toward refreshing rank r; returns true if a
// command was issued this cycle.
func (c *Controller) tryRefresh(r int, now int64) bool {
	cmd, b, at := c.refreshStep(r, now)
	if at != now {
		return false // waiting on tRAS, tRP or tRFC
	}
	perGroup := c.cfg.BanksPerGroup()
	c.ch.Issue(cmd, dram.Loc{Rank: r, BankGroup: b % c.cfg.Banks / perGroup, Bank: b % perGroup}, now)
	if cmd == dram.CmdPRE {
		c.rowChanged(b)
	}
	c.touch()
	return true
}

// refreshStep returns the next command of rank r's refresh sequence, the
// channel-wide index of its bank, and the earliest cycle >= now it can
// issue: the PRE of the open bank that can issue soonest (the lowest index
// on ties), or, once every bank of the rank is closed, REF.
func (c *Controller) refreshStep(r int, now int64) (cmd dram.Command, b int, at int64) {
	first := r * c.cfg.Banks
	cmd, b, at = dram.CmdREF, first, int64(1)<<62
	for bi := first; bi < first+c.cfg.Banks; bi++ {
		if _, open := c.ch.OpenRowAt(bi); !open {
			continue
		}
		if t := c.ch.EarliestIssueAt(dram.CmdPRE, bi, now); t < at {
			cmd, b, at = dram.CmdPRE, bi, t
		}
	}
	if cmd == dram.CmdREF {
		// No open rows: EarliestIssueAt(REF) cannot return its
		// caller-must-precharge sentinel here.
		at = c.ch.EarliestIssueAt(dram.CmdREF, first, now)
	}
	return cmd, b, at
}

// scheduleFrom applies FR-FCFS to one queue. Pass 1 issues the first
// (oldest) row-hit column command that is ready; pass 2 lets the oldest
// request make any progress (PRE on conflict, ACT on closed bank). Bit r
// of blocked marks rank r refresh-due; its requests are skipped.
//
// Both passes work per bank. Whether RD, WR, PRE or ACT may issue depends
// only on bank, rank, data-bus and command-bus state, never on a request's
// row or column, and nothing changes until the pass issues. So pass 1
// checks the column command once per bank with hits and walks the queue
// only when some bank is ready. Each pass visits only the banks past
// their own horizon for its command (c.col, c.row), and checks them with
// that horizon taken as passed (dram.Channel.EarliestIssueOwn); pass 1 is
// skipped outright while the channel-wide column terms forbid col. In
// pass 2 only each bank's head (its
// oldest request) can act: when the head targets the open row, no younger
// request may close that row (two conflicting requests would livelock,
// each re-closing the other's row); otherwise every younger request needs
// the head's own PRE or ACT, or a column command pass 1 found not ready.
// Queue order is ID order, so the oldest head is the lowest head ID.
func (c *Controller) scheduleFrom(isWrite bool, blocked uint64, now int64) bool {
	col, q, s := dram.CmdRD, c.readQ, &c.sum[0]
	if isWrite {
		col, q, s = dram.CmdWR, c.writeQ, &c.sum[writeIdx]
	}
	// Pass 1: row hits, oldest first, among the banks past tRCD. When the
	// channel-wide column terms forbid col at now, no bank is ready.
	anyReady := false
	if c.ch.ColumnFloor(col) <= now {
		c.col.advance(now)
		for w, word := range s.hasHits {
			var ready uint64
			for word &= c.col.ok[w]; word != 0; word &= word - 1 {
				i := bits.TrailingZeros64(word)
				b := w<<6 | i
				if blocked>>uint(s.banks[b].rank)&1 == 0 && c.ch.EarliestIssueOwn(col, b, now, now) == now {
					ready |= 1 << uint(i)
				}
			}
			c.ready[w] = ready
			anyReady = anyReady || ready != 0
		}
	}
	if anyReady {
		for i := range q {
			b := int(q[i].bank)
			if c.ready[b>>6]>>uint(b&63)&1 == 0 {
				continue
			}
			if row, _ := c.ch.OpenRowAt(b); row == q[i].loc.Row {
				c.issueColumn(col, i, isWrite, now)
				return true
			}
		}
		panic("memctrl: a ready bank has no queued row hit")
	}
	// Pass 2: the oldest bank head whose PRE or ACT can issue, among the
	// banks past that command's own horizon.
	best, bestID, bestCmd := -1, uint64(0), dram.Command(0)
	c.row.advance(now)
	for w, word := range s.occupied {
		for word &= c.row.ok[w]; word != 0; word &= word - 1 {
			b := w<<6 | bits.TrailingZeros64(word)
			bq := &s.banks[b]
			if (best >= 0 && bq.headID > bestID) || blocked>>uint(bq.rank)&1 != 0 {
				continue
			}
			cmd := dram.CmdACT
			if row, open := c.ch.OpenRowAt(b); open {
				if row == bq.headRow {
					continue // column timing not ready yet
				}
				cmd = dram.CmdPRE
			}
			if c.ch.EarliestIssueOwn(cmd, b, now, now) == now {
				best, bestID, bestCmd = b, bq.headID, cmd
			}
		}
	}
	if best < 0 {
		return false
	}
	c.ch.Issue(bestCmd, s.headLoc[best], now)
	c.ch.RecordRowOutcome(false, bestCmd == dram.CmdPRE)
	c.rowChanged(best)
	c.touch()
	return true
}

// issueColumn issues the row-hit column command of queue entry idx and
// retires the entry; a read's completion joins the pending heap.
func (c *Controller) issueColumn(col dram.Command, idx int, isWrite bool, now int64) {
	c.touch()
	q, s := &c.readQ, &c.sum[0]
	if isWrite {
		q, s = &c.writeQ, &c.sum[writeIdx]
	}
	req := (*q)[idx]
	done := c.ch.Issue(col, req.loc, now)
	c.ch.RecordRowOutcome(true, false)
	c.rearm(int(req.bank))
	*q = append((*q)[:idx], (*q)[idx+1:]...)
	s.removeHit(*q, idx, &req)
	if isWrite {
		c.WritesCompleted++
		return
	}
	c.ReadsCompleted++
	c.ReadLatencySum += uint64(done - req.Arrival)
	c.pending.push(Completion{Tag: req.Tag, Done: done})
}

// AvgReadLatency returns the mean enqueue-to-data latency in memory cycles.
func (c *Controller) AvgReadLatency() float64 {
	if c.ReadsCompleted == 0 {
		return 0
	}
	return float64(c.ReadLatencySum) / float64(c.ReadsCompleted)
}

// String summarizes controller state for debugging.
func (c *Controller) String() string {
	return fmt.Sprintf("memctrl{rq=%d wq=%d inflight=%d drain=%v}",
		len(c.readQ), len(c.writeQ), len(c.pending), c.draining)
}

// completionHeap is a min-heap on Done cycle. push and pop sift exactly
// as container/heap does, so completions with equal Done pop in the same
// order, without boxing each Completion into an interface.
type completionHeap []Completion

func (h *completionHeap) push(x Completion) {
	*h = append(*h, x)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if s[j].Done >= s[i].Done {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *completionHeap) pop() Completion {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && s[r].Done < s[j].Done {
			j = r
		}
		if s[j].Done >= s[i].Done {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

// Draining reports whether the controller is currently in write-drain mode.
func (c *Controller) Draining() bool { return c.draining }

// DebugState renders the controller's full scheduling-relevant state.
// Opt-in debugging aid: when the simulator's per-cycle identity test finds
// a divergence, add this to its state signature to see queue contents and
// bank timing at the first bad cycle.
func (c *Controller) DebugState() string {
	var s strings.Builder
	fmt.Fprintf(&s, "drain=%v q=[", c.draining)
	for _, r := range c.readQ {
		fmt.Fprintf(&s, "R%d@%v ", r.ID, r.loc)
	}
	for _, w := range c.writeQ {
		fmt.Fprintf(&s, "W%d@%v ", w.ID, w.loc)
	}
	return s.String() + "] ch=" + c.ch.DebugState()
}
