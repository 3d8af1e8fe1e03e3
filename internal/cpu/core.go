// Package cpu implements the trace-driven out-of-order core model from
// Table I of the paper: 6-wide fetch/retire, a 224-entry reorder buffer,
// in-order retirement with loads blocking at the ROB head until their data
// returns, stores draining through a write buffer, and optional load-load
// dependencies (pointer chasing) that cap memory-level parallelism.
//
// The model is a ROB-window limit study: non-memory instructions retire at
// full width, so IPC is governed by LLC-miss latency, bandwidth, and MLP —
// the quantities that drive every result in the paper's evaluation.
package cpu

import (
	"fmt"

	"secddr/internal/config"
)

// Op is one memory operation in a workload trace, preceded by Gap
// non-memory instructions.
type Op struct {
	Gap         int
	Addr        uint64
	Store       bool
	DependsPrev bool // load address depends on the previous load's data
}

// OpSource produces the core's instruction stream. Next returns false when
// the trace is exhausted.
type OpSource interface {
	Next() (Op, bool)
}

// LoadResult describes how the memory hierarchy handled a load.
type LoadResult struct {
	Accepted bool  // false: structural stall, retry next cycle
	Async    bool  // completion will arrive via Core.CompleteLoad
	ReadyAt  int64 // CPU cycle data is ready (valid when !Async)
}

// Memory is the core's port into the cache hierarchy and security engine.
type Memory interface {
	// Load issues a load for the ROB slot slot. An asynchronous load
	// completes through CompleteLoad(slot, readyAt).
	Load(addr uint64, now int64, slot int) LoadResult
	// Store submits a committed store; false applies backpressure.
	Store(addr uint64, now int64) bool
}

type entryKind int

const (
	kindBatch entryKind = iota + 1 // n plain ALU instructions
	kindLoad
	kindStore
)

type robEntry struct {
	kind    entryKind
	n       int // batch size (1 for memory ops)
	addr    uint64
	ready   bool
	readyAt int64
}

// Core is one out-of-order core.
type Core struct {
	cfg config.Core
	mem Memory
	src OpSource

	rob    []robEntry
	head   int
	slots  int // occupied ring entries
	instrs int // instructions in flight (sum of entry n)

	gapLeft int
	nextOp  Op
	haveOp  bool
	srcDone bool

	lastLoadSlot  int   // ROB slot of the last asynchronous load
	lastLoadReady int64 // -1: in flight; otherwise ready cycle
	haveLastLoad  bool

	// headSince is the cycle at which the current ROB-head entry became
	// the head. It is updated only at head transitions — retirement
	// advancing the ring, or a push into an empty ROB — which are
	// architectural state changes and therefore occur at cycles every
	// driver executes, so the stall attribution derived from it is exact
	// under the event-driven driver too (unlike the tick-counting stats
	// below).
	headSince int64

	// Stats. Retired/LoadsIssued/StoresIssued count events and are exact
	// under any driver. Cycles, RetireStalls, and FetchStalls (and hence
	// IPC()) count *ticks*, so they are meaningful only when the driver
	// calls Tick every cycle — an event-driven driver that skips provably
	// inert cycles (see NextEvent) leaves them undercounted. The
	// simulator derives its IPC from its own cycle clock, not from these.
	Retired      uint64
	Cycles       uint64
	LoadsIssued  uint64
	StoresIssued uint64
	RetireStalls uint64 // ticks the ROB head blocked retirement
	FetchStalls  uint64 // ticks fetch was blocked (ROB full / memory)

	// Cycle attribution for the profiler. Unlike the tick-counting stats
	// above these are exact under any driver: each is the summed ROB-head
	// occupancy of the retired entries of one kind, computed at
	// retirement as now-headSince. An entry blocked at the head keeps
	// accumulating until it retires, so in-order retirement makes the
	// intervals disjoint: MemStall+StoreStall never exceeds elapsed
	// cycles, and the remainder is frontend/compute time.
	MemStallCycles   uint64 // load entries' head occupancy (LLC-miss shadow)
	StoreStallCycles uint64 // store entries' head occupancy (write backpressure)
}

// NewCore builds a core reading ops from src and accessing mem.
func NewCore(cfg config.Core, mem Memory, src OpSource) *Core {
	return &Core{
		cfg:           cfg,
		mem:           mem,
		src:           src,
		rob:           make([]robEntry, cfg.ROBEntries),
		lastLoadReady: 0,
	}
}

// Source returns the op source the core executes. The simulator uses it
// to register per-run instrumentation (e.g. scenario phase hooks) on the
// source a core actually holds — after a fork that is the clone, not the
// source the core was built with.
func (c *Core) Source() OpSource { return c.src }

// Done reports whether the trace is exhausted and the pipeline drained.
func (c *Core) Done() bool {
	return c.srcDone && c.slots == 0 && !c.haveOp && c.gapLeft == 0
}

// IPC returns retired instructions per executed tick so far; see the
// stats comment for when Cycles is meaningful.
func (c *Core) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Retired) / float64(c.Cycles)
}

// CompleteLoad delivers the completion of the asynchronous load the core
// issued for ROB slot slot. readyAt is the CPU cycle at which the data
// became usable. The slot still holds that load: a load blocks retirement
// until it is ready, so its slot is not reused before this call; warmup and
// the sampled drain deliver every fill before a snapshot or a
// FastForwardTo empties the ROB; and the simulator drops deliveries to a
// core whose finishCycle is set.
func (c *Core) CompleteLoad(slot int, readyAt int64) {
	e := &c.rob[slot]
	e.ready = true
	e.readyAt = readyAt
	if c.haveLastLoad && slot == c.lastLoadSlot {
		c.lastLoadReady = readyAt
	}
}

// Tick advances the core one CPU cycle: retire then fetch/dispatch.
func (c *Core) Tick(now int64) {
	c.Cycles++
	c.retire(now)
	c.fetch(now)
}

// EventNever is NextEvent's sentinel for "only an external CompleteLoad can
// unblock this core".
const EventNever = int64(1) << 62

// NextEvent returns the earliest CPU cycle strictly after now at which
// Tick could change any architectural state (tick-counting diagnostics —
// Cycles and the stall counters — excepted) — including externally
// visible retries such
// as a backpressured store or a structurally stalled load, which probe the
// memory hierarchy every cycle — assuming no CompleteLoad arrives in the
// meantime. It returns EventNever when the core is blocked purely on an
// asynchronous completion. The simulator uses it to skip cycles it can
// prove are no-ops; returning a cycle that is too early is harmless,
// returning one that is too late would desynchronize the model, so every
// uncertain case answers now+1.
func (c *Core) NextEvent(now int64) int64 {
	if c.Done() {
		return EventNever
	}
	next := EventNever
	// Retirement: in-order, so only the ROB head matters.
	if c.slots > 0 {
		switch e := &c.rob[c.head]; e.kind {
		case kindBatch:
			return now + 1 // ALU instructions retire unconditionally
		case kindStore:
			return now + 1 // store retries probe the LLC every cycle
		case kindLoad:
			if e.ready {
				if e.readyAt <= now+1 {
					return now + 1
				}
				next = e.readyAt // known future wake-up
			}
			// Not ready: blocked until CompleteLoad.
		}
	}
	// Fetch: mirrors the gating in fetch(). Retirement cannot free ROB
	// space before `next` (handled above), so the occupancy is stable.
	if c.instrs >= c.cfg.ROBEntries || c.slots == len(c.rob) {
		return next // ROB full: unblocked only by retirement
	}
	if !c.haveOp && c.gapLeft == 0 {
		if c.srcDone {
			return next // trace exhausted: only retirement remains
		}
		return now + 1 // will pull a fresh op
	}
	if c.gapLeft > 0 {
		return now + 1 // ALU batch dispatch always makes progress
	}
	if c.nextOp.Store {
		return now + 1 // store dispatch only needs a ROB slot
	}
	if c.nextOp.DependsPrev && c.haveLastLoad {
		if c.lastLoadReady < 0 {
			return next // address unknown until CompleteLoad
		}
		if c.lastLoadReady > now+1 {
			if c.lastLoadReady < next {
				next = c.lastLoadReady
			}
			return next
		}
	}
	return now + 1 // dispatchable load: probes the LLC
}

func (c *Core) retire(now int64) {
	budget := c.cfg.RetireWidth
	for budget > 0 && c.slots > 0 {
		e := &c.rob[c.head]
		switch e.kind {
		case kindBatch:
			take := e.n
			if take > budget {
				take = budget
			}
			e.n -= take
			budget -= take
			c.Retired += uint64(take)
			c.instrs -= take
			if e.n > 0 {
				return // width exhausted mid-batch
			}
		case kindLoad:
			if !e.ready || e.readyAt > now {
				c.RetireStalls++
				return // head blocked on memory
			}
			c.MemStallCycles += uint64(now - c.headSince)
			budget--
			c.Retired++
			c.instrs--
		case kindStore:
			if !c.mem.Store(e.addr, now) {
				c.RetireStalls++
				return // write-buffer backpressure
			}
			c.StoreStallCycles += uint64(now - c.headSince)
			c.StoresIssued++
			budget--
			c.Retired++
			c.instrs--
		}
		c.head = (c.head + 1) % len(c.rob)
		c.slots--
		c.headSince = now
	}
}

func (c *Core) fetch(now int64) {
	budget := c.cfg.FetchWidth
	for budget > 0 {
		if c.instrs >= c.cfg.ROBEntries || c.slots == len(c.rob) {
			c.FetchStalls++
			return
		}
		// Refill the op cursor.
		if !c.haveOp && c.gapLeft == 0 {
			if c.srcDone {
				return
			}
			op, ok := c.src.Next()
			if !ok {
				c.srcDone = true
				return
			}
			c.nextOp = op
			c.haveOp = true
			c.gapLeft = op.Gap
		}
		if c.gapLeft > 0 {
			take := c.gapLeft
			if take > budget {
				take = budget
			}
			if room := c.cfg.ROBEntries - c.instrs; take > room {
				take = room
			}
			if take == 0 {
				c.FetchStalls++
				return
			}
			c.pushBatch(now, take)
			c.gapLeft -= take
			budget -= take
			continue
		}
		// Dispatch the memory op.
		if c.nextOp.Store {
			c.push(now, robEntry{kind: kindStore, n: 1, addr: c.nextOp.Addr})
			c.haveOp = false
			budget--
			continue
		}
		// Pointer-chase dependency: the address is unknown until the
		// previous load's data returns.
		if c.nextOp.DependsPrev && c.haveLastLoad &&
			(c.lastLoadReady < 0 || c.lastLoadReady > now) {
			c.FetchStalls++
			return
		}
		slot := (c.head + c.slots) % len(c.rob)
		res := c.mem.Load(c.nextOp.Addr, now, slot)
		if !res.Accepted {
			c.FetchStalls++
			return
		}
		c.LoadsIssued++
		e := robEntry{kind: kindLoad, n: 1, addr: c.nextOp.Addr}
		if res.Async {
			c.lastLoadSlot = slot
			c.lastLoadReady = -1
		} else {
			e.ready = true
			e.readyAt = res.ReadyAt
			c.lastLoadReady = res.ReadyAt
		}
		c.haveLastLoad = true
		c.push(now, e)
		c.haveOp = false
		budget--
	}
}

func (c *Core) push(now int64, e robEntry) {
	if c.slots == 0 {
		c.headSince = now // the new entry is the ROB head
	}
	c.rob[(c.head+c.slots)%len(c.rob)] = e
	c.slots++
	c.instrs += e.n
}

// pushBatch inserts n plain instructions, coalescing with a trailing batch
// entry so a long gap occupies one ring slot while still counting n
// instructions against ROB capacity.
func (c *Core) pushBatch(now int64, n int) {
	if c.slots > 0 {
		tail := &c.rob[(c.head+c.slots-1)%len(c.rob)]
		if tail.kind == kindBatch {
			tail.n += n
			c.instrs += n
			return
		}
	}
	c.push(now, robEntry{kind: kindBatch, n: n})
}

// String summarizes core state.
func (c *Core) String() string {
	return fmt.Sprintf("core{rob=%d/%d retired=%d ipc=%.2f}",
		c.instrs, c.cfg.ROBEntries, c.Retired, c.IPC())
}
