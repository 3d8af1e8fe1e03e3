package cpu

// FuncMemory is the core's port into the memory hierarchy during a
// functional fast-forward: operations apply architecturally — cache and
// metadata state updates, no queues, no latency, no backpressure. The
// sampled simulation mode uses it to keep cache contents warm across the
// spans it does not model in detail.
type FuncMemory interface {
	FuncLoad(addr uint64)
	FuncStore(addr uint64)
}

// FastForwardTo retires instructions functionally until Retired reaches
// target (or the trace ends): the current ROB contents retire
// architecturally — stores apply through mem, loads were already issued at
// dispatch — and further instructions stream straight from the op source,
// applying their memory effects with no timing model. The caller must have
// delivered every asynchronous load first (the sampled loop drains the
// memory system before it fast-forwards): the ROB slots are reused
// afterwards, so a late CompleteLoad would land on another entry. The
// load-load dependency chain restarts cold (the sampled loop's detailed
// warmrun re-primes it before the next measurement window). The partially
// consumed op cursor (a half-dispatched gap batch) carries over, so the
// instruction stream continues exactly where detailed execution stopped.
//
// Tick-counting stats (Cycles, stall counters) are untouched — the caller
// advances its clock by an estimated cycle count — while event counts
// (Retired, LoadsIssued, StoresIssued) stay exact.
func (c *Core) FastForwardTo(target uint64, mem FuncMemory) {
	// Retire the ROB remnant architecturally.
	for c.slots > 0 {
		e := &c.rob[c.head]
		switch e.kind {
		case kindBatch:
			c.Retired += uint64(e.n)
			c.instrs -= e.n
		case kindLoad:
			c.Retired++
			c.instrs--
		case kindStore:
			mem.FuncStore(e.addr)
			c.StoresIssued++
			c.Retired++
			c.instrs--
		}
		c.head = (c.head + 1) % len(c.rob)
		c.slots--
	}
	c.haveLastLoad = false
	c.lastLoadReady = 0

	// Stream further instructions functionally.
	for c.Retired < target {
		if c.gapLeft > 0 {
			take := uint64(c.gapLeft)
			if rem := target - c.Retired; take > rem {
				take = rem
			}
			c.Retired += take
			c.gapLeft -= int(take)
			continue
		}
		if !c.haveOp {
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
			continue
		}
		if c.nextOp.Store {
			mem.FuncStore(c.nextOp.Addr)
			c.StoresIssued++
		} else {
			mem.FuncLoad(c.nextOp.Addr)
			c.LoadsIssued++
		}
		c.Retired++
		c.haveOp = false
	}
}
