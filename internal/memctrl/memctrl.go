// Package memctrl implements the memory controller from Table I of the
// paper: 64-entry read and write queues per channel, FR-FCFS scheduling
// with row-hit-first and read-over-write priority, watermark-based write
// draining, read-around-write forwarding, and refresh management. It drives
// the cycle-level dram.Channel command interface.
package memctrl

import (
	"errors"
	"fmt"
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
	ID      uint64
	Addr    uint64
	Arrival int64 // memory cycle at enqueue
	loc     dram.Loc
	bank    int32 // channel-wide bank index (dram.Channel.BankIndex) of loc
	Write   bool
}

// Completion reports a finished read.
type Completion struct {
	ID   uint64
	Addr uint64
	Done int64 // memory cycle the data burst completed
}

// Controller owns one channel.
type Controller struct {
	cfg    config.DRAM
	ch     *dram.Channel
	mapper *dram.AddressMapper

	readQ  []Request
	writeQ []Request

	draining  bool
	drainHigh int // write-drain high watermark, in queue entries
	drainLow  int // write-drain low watermark, in queue entries
	pending   completionHeap
	nextID    uint64
	doneBuf   []Completion // reused backing array for Tick's return value

	// Per-scan scratch, indexed by channel-wide bank index and cleared at
	// the start of every use: what it holds between scans is never read.
	scanFlags []bankFlags // one scheduleFrom pass
	boundMemo []int64     // one issueBound: memoIssuable, per (bank, command)

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
	return &Controller{
		cfg:       cfg,
		ch:        ch,
		mapper:    mapper,
		scanFlags: make([]bankFlags, nbanks),
		boundMemo: make([]int64, nbanks*boundCmds),
		// The hysteresis thresholds are derived once: the quiet-span
		// machinery and the scheduler must agree on them exactly, or
		// event-driven runs would diverge from the reference loop.
		drainHigh: int(float64(cfg.WriteQueueEntries) * cfg.WriteDrainHigh),
		drainLow:  int(float64(cfg.WriteQueueEntries) * cfg.WriteDrainLow),
	}, nil
}

// Channel exposes the underlying DRAM channel (stats, tests).
func (c *Controller) Channel() *dram.Channel { return c.ch }

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
	lineAddr := addr &^ uint64(c.cfg.LineBytes-1)
	for i := range c.writeQ {
		if c.writeQ[i].Addr == lineAddr {
			return true // write coalesce or read forwarding
		}
	}
	if write {
		return c.CanEnqueueWrite()
	}
	return c.CanEnqueueRead()
}

// EnqueueRead queues a read for addr. If the line has a pending write, the
// read is served by store-forwarding: it completes immediately (forwarded
// true) and never occupies a queue slot.
func (c *Controller) EnqueueRead(addr uint64, now int64) (id uint64, forwarded bool, err error) {
	lineAddr := addr &^ uint64(c.cfg.LineBytes-1)
	for i := range c.writeQ {
		if c.writeQ[i].Addr == lineAddr {
			c.ReadsForwarded++
			c.nextID++
			return c.nextID, true, nil
		}
	}
	if !c.CanEnqueueRead() {
		return 0, false, ErrQueueFull
	}
	c.nextID++
	c.readQ = append(c.readQ, c.newRequest(lineAddr, false, now))
	c.ReadsEnqueued++
	c.noteEnqueued(&c.readQ[len(c.readQ)-1], dram.CmdRD, now)
	return c.nextID, false, nil
}

// newRequest builds the queue entry for line lineAddr under ID c.nextID.
func (c *Controller) newRequest(lineAddr uint64, write bool, now int64) Request {
	_, loc := c.mapper.Map(lineAddr)
	return Request{ID: c.nextID, Addr: lineAddr, Arrival: now, loc: loc,
		bank: int32(c.ch.BankIndex(loc)), Write: write}
}

// noteEnqueued folds a newly queued request into the quiet bound. Adding a
// request can only add issue opportunities and touches no channel state, so
// min-ing its own earliest issue into a still-valid bound stays sound at
// O(1) instead of invalidating the span. Crossing the write-drain high
// watermark must still invalidate: the pending drain toggle is next-cycle
// scheduler work no per-request term covers.
func (c *Controller) noteEnqueued(req *Request, col dram.Command, now int64) {
	if !c.eventDriven || c.quietDirty {
		c.quietDirty = true
		return
	}
	if !c.draining && len(c.writeQ) >= c.drainHigh {
		c.quietDirty = true
		return
	}
	// Anchor at now, not now+1: a request entering from the engine's
	// backlog is enqueued before this cycle's scheduler pass runs, so it
	// can legally issue in the very cycle it arrives. For enqueues that
	// land after the pass the bound is one cycle conservative, which only
	// costs a no-op wake.
	if t := c.nextIssuable(req, col, now-1); t < c.quietUntil {
		c.quietUntil = t
	}
}

// EnqueueWrite queues a write-back for addr. Writes to a line already in
// the write queue coalesce into the existing entry.
func (c *Controller) EnqueueWrite(addr uint64, now int64) error {
	lineAddr := addr &^ uint64(c.cfg.LineBytes-1)
	for i := range c.writeQ {
		if c.writeQ[i].Addr == lineAddr {
			return nil // coalesced
		}
	}
	if !c.CanEnqueueWrite() {
		return ErrQueueFull
	}
	c.nextID++
	c.writeQ = append(c.writeQ, c.newRequest(lineAddr, true, now))
	c.WritesEnqueued++
	c.noteEnqueued(&c.writeQ[len(c.writeQ)-1], dram.CmdWR, now)
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
// command) catches up. The scan itself — not the ticking — dominates
// simulation cost, so this is where event-driven advance actually wins.
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
	clear(c.boundMemo)
	for i := range c.readQ {
		t := c.memoIssuable(&c.readQ[i], dram.CmdRD, now)
		if t <= now+1 {
			return now + 1
		}
		if t < next {
			next = t
		}
	}
	for i := range c.writeQ {
		t := c.memoIssuable(&c.writeQ[i], dram.CmdWR, now)
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

// boundCmds is the number of distinct commands a queued request can need
// next (ACT, PRE, RD, WR): the per-bank stride of boundMemo.
const boundCmds = 4

// memoIssuable is nextIssuable memoized in boundMemo per (bank, command).
// The earliest issue cycle of a command depends only on its bank and on
// rank and bus state, never on the request's row or column, so requests
// sharing a bank and a next command share the answer. Entries hold the
// bound minus now, which is at least 1, so zero means not yet computed.
func (c *Controller) memoIssuable(req *Request, col dram.Command, now int64) int64 {
	cmd := c.nextCmd(req, col)
	m := &c.boundMemo[int(req.bank)*boundCmds+int(cmd-dram.CmdACT)]
	if *m == 0 {
		*m = c.ch.EarliestIssueAt(cmd, int(req.bank), now+1) - now
	}
	return now + *m
}

// nextRefreshStep lower-bounds the cycle at which tryRefresh could issue
// its next command for a rank whose refresh deadline has passed: the
// earliest PRE closing any still-open bank, or — once all banks are
// precharged — the REF itself. Without this bound an in-progress refresh
// sequence (tens of cycles waiting on tRAS/tRP) would collapse the
// controller's next event to now+1 and force a full scheduler scan every
// cycle of the wait.
func (c *Controller) nextRefreshStep(r int, now int64) int64 {
	next := int64(1) << 62
	anyOpen := false
	for bg := 0; bg < c.cfg.BankGroups; bg++ {
		for b := 0; b < c.cfg.BanksPerGroup(); b++ {
			loc := dram.Loc{Rank: r, BankGroup: bg, Bank: b}
			if _, open := c.ch.OpenRow(loc); open {
				anyOpen = true
				if t := c.ch.EarliestIssue(dram.CmdPRE, loc, now+1); t < next {
					next = t
				}
			}
		}
	}
	if anyOpen {
		return next
	}
	// No open rows: EarliestIssue(REF) cannot return its caller-must-
	// precharge sentinel here.
	return c.ch.EarliestIssue(dram.CmdREF, dram.Loc{Rank: r}, now+1)
}

// nextIssuable lower-bounds the cycle at which the request's next command
// (column on a row hit, PRE on a conflict, ACT on a closed bank) could
// legally issue, assuming no other command issues first — which holds
// whenever the caller takes the minimum across all queued requests.
func (c *Controller) nextIssuable(req *Request, col dram.Command, now int64) int64 {
	return c.ch.EarliestIssueAt(c.nextCmd(req, col), int(req.bank), now+1)
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
	if c.scheduleFrom(primary, primaryIsWrite, blocked, now) {
		return true
	}
	return c.scheduleFrom(secondary, !primaryIsWrite, blocked, now)
}

// tryRefresh makes progress toward refreshing rank r; returns true if a
// command was issued this cycle.
func (c *Controller) tryRefresh(r int, now int64) bool {
	anyOpen := false
	for bg := 0; bg < c.cfg.BankGroups; bg++ {
		for b := 0; b < c.cfg.BanksPerGroup(); b++ {
			loc := dram.Loc{Rank: r, BankGroup: bg, Bank: b}
			if _, open := c.ch.OpenRow(loc); open {
				anyOpen = true
				if c.ch.CanIssue(dram.CmdPRE, loc, now) {
					c.ch.Issue(dram.CmdPRE, loc, now)
					c.touch()
					return true
				}
			}
		}
	}
	if anyOpen {
		return false // waiting on tRAS etc.
	}
	loc := dram.Loc{Rank: r}
	if c.ch.CanIssue(dram.CmdREF, loc, now) {
		c.ch.Issue(dram.CmdREF, loc, now)
		c.touch()
		return true
	}
	return false
}

// bankFlags records what one scheduleFrom pass has learned about a bank.
// Whether RD, WR, PRE or ACT may issue depends only on bank, rank, data-bus
// and command-bus state — never on a request's row or column — and no
// state changes until the pass issues a command and returns. So a bank
// found not ready stays not ready for the rest of the pass: later requests
// to it skip the timing check, and each pass does its per-bank work once
// per bank rather than once per queued request.
type bankFlags uint8

const (
	noColumn   bankFlags = 1 << iota // pass 1: closed, or the queue's column command cannot issue
	rowCmdBusy                       // pass 2: the bank's PRE or ACT cannot issue
	rowWanted                        // pass 2: an older request targets the open row
)

// scheduleFrom applies FR-FCFS to one queue. Pass 1 issues the first
// (oldest) row-hit column command that is ready; pass 2 lets the oldest
// request make any progress (PRE on conflict, ACT on closed bank). Bit r
// of blocked marks rank r refresh-due; its requests are skipped.
func (c *Controller) scheduleFrom(q []Request, isWrite bool, blocked uint64, now int64) bool {
	col := dram.CmdRD
	if isWrite {
		col = dram.CmdWR
	}
	flags := c.scanFlags
	clear(flags)
	// Pass 1: row hits, oldest first.
	for i := range q {
		req := &q[i]
		b := int(req.bank)
		if flags[b]&noColumn != 0 || blocked>>uint(req.loc.Rank)&1 != 0 {
			continue
		}
		row, open := c.ch.OpenRowAt(b)
		if open && row != req.loc.Row {
			continue
		}
		if open && c.ch.CanIssueAt(col, b, now) {
			c.issueColumn(col, i, isWrite, now)
			return true
		}
		flags[b] |= noColumn
	}
	// Pass 2: progress for the oldest schedulable request. A blocked
	// rank's requests leave no rowWanted mark, but only requests of the
	// same, equally blocked rank could read it. Once a bank is marked
	// rowWanted or rowCmdBusy, no later request to it can issue anything.
	for i := range q {
		req := &q[i]
		b := int(req.bank)
		if flags[b]&(rowWanted|rowCmdBusy) != 0 || blocked>>uint(req.loc.Rank)&1 != 0 {
			continue
		}
		row, open := c.ch.OpenRowAt(b)
		cmd := dram.CmdACT
		switch {
		case open && row == req.loc.Row:
			// Column timing not ready; nothing to issue for this request,
			// but younger requests may still proceed.
			flags[b] |= rowWanted
			continue
		case open:
			// An older request still needing this row would have set
			// rowWanted: closing the row here would livelock two
			// conflicting requests against each other (each re-closing
			// the other's row).
			cmd = dram.CmdPRE
		}
		if !c.ch.CanIssueAt(cmd, b, now) {
			flags[b] |= rowCmdBusy
			continue
		}
		c.ch.Issue(cmd, req.loc, now)
		c.ch.RecordRowOutcome(false, cmd == dram.CmdPRE)
		c.touch()
		return true
	}
	return false
}

// issueColumn issues the row-hit column command of queue entry idx and
// retires the entry; a read's completion joins the pending heap.
func (c *Controller) issueColumn(col dram.Command, idx int, isWrite bool, now int64) {
	c.touch()
	q := &c.readQ
	if isWrite {
		q = &c.writeQ
	}
	req := (*q)[idx]
	done := c.ch.Issue(col, req.loc, now)
	c.ch.RecordRowOutcome(true, false)
	*q = append((*q)[:idx], (*q)[idx+1:]...)
	if isWrite {
		c.WritesCompleted++
		return
	}
	c.ReadsCompleted++
	c.ReadLatencySum += uint64(done - req.Arrival)
	c.pending.push(Completion{ID: req.ID, Addr: req.Addr, Done: done})
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
