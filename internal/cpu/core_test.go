package cpu

import (
	"testing"

	"secddr/internal/config"
)

// sliceSource serves a fixed op list.
type sliceSource struct {
	ops []Op
	i   int
}

func (s *sliceSource) Next() (Op, bool) {
	if s.i >= len(s.ops) {
		return Op{}, false
	}
	op := s.ops[s.i]
	s.i++
	return op, true
}

// fakeMem is a scriptable memory with fixed latency.
type fakeMem struct {
	latency   int64
	async     bool
	inflight  map[int]int64 // ROB slot -> issue cycle
	rejectN   int           // reject the first N loads
	storeFull bool
	stores    int
}

func newFakeMem(latency int64, async bool) *fakeMem {
	return &fakeMem{latency: latency, async: async, inflight: map[int]int64{}}
}

func (m *fakeMem) Load(addr uint64, now int64, slot int) LoadResult {
	if m.rejectN > 0 {
		m.rejectN--
		return LoadResult{}
	}
	if !m.async {
		return LoadResult{Accepted: true, ReadyAt: now + m.latency}
	}
	m.inflight[slot] = now
	return LoadResult{Accepted: true, Async: true}
}

func (m *fakeMem) Store(addr uint64, now int64) bool {
	if m.storeFull {
		return false
	}
	m.stores++
	return true
}

// deliver completes all async loads that have aged past the latency.
func (m *fakeMem) deliver(c *Core, now int64) {
	for slot, issued := range m.inflight {
		if now-issued >= m.latency {
			c.CompleteLoad(slot, now)
			delete(m.inflight, slot)
		}
	}
}

func coreCfg() config.Core {
	return config.Table1(config.ModeUnprotected).Core
}

func runCore(t *testing.T, c *Core, m *fakeMem, maxCycles int64) int64 {
	t.Helper()
	for cyc := int64(0); cyc < maxCycles; cyc++ {
		if m != nil {
			m.deliver(c, cyc)
		}
		c.Tick(cyc)
		if c.Done() {
			return cyc
		}
	}
	t.Fatalf("core never finished: %v", c)
	return 0
}

func TestPureComputeIPC(t *testing.T) {
	// 6000 plain instructions on a 6-wide core: IPC must approach 6.
	src := &sliceSource{ops: []Op{{Gap: 6000, Addr: 0x40, Store: false}}}
	m := newFakeMem(1, false)
	c := NewCore(coreCfg(), m, src)
	runCore(t, c, m, 10000)
	if c.Retired != 6001 {
		t.Fatalf("retired = %d, want 6001", c.Retired)
	}
	if ipc := c.IPC(); ipc < 5.0 {
		t.Errorf("compute-bound IPC = %.2f, want near 6", ipc)
	}
}

func TestMemoryBoundLatency(t *testing.T) {
	// Dependent chain of loads, 400-cycle latency: IPC collapses.
	ops := make([]Op, 50)
	for i := range ops {
		ops[i] = Op{Gap: 1, Addr: uint64(i) * 64, DependsPrev: true}
	}
	m := newFakeMem(400, true)
	c := NewCore(coreCfg(), m, &sliceSource{ops: ops})
	runCore(t, c, m, 100000)
	if ipc := c.IPC(); ipc > 0.05 {
		t.Errorf("pointer-chase IPC = %.3f, want << 1", ipc)
	}
}

func TestMLPOverlapsIndependentLoads(t *testing.T) {
	// Independent loads overlap within the ROB window: total time must be
	// far below loads*latency.
	ops := make([]Op, 64)
	for i := range ops {
		ops[i] = Op{Gap: 1, Addr: uint64(i) * 4096}
	}
	m := newFakeMem(400, true)
	c := NewCore(coreCfg(), m, &sliceSource{ops: ops})
	end := runCore(t, c, m, 100000)
	serial := int64(64 * 400)
	if end > serial/4 {
		t.Errorf("independent loads took %d cycles; little MLP (serial=%d)", end, serial)
	}
}

func TestROBWindowLimitsMLP(t *testing.T) {
	// With Gap >= ROB size between loads, only one load fits the window at
	// a time: runtime approaches serial latency.
	cfg := coreCfg()
	ops := make([]Op, 10)
	for i := range ops {
		ops[i] = Op{Gap: cfg.ROBEntries + 8, Addr: uint64(i) * 4096}
	}
	m := newFakeMem(500, true)
	c := NewCore(cfg, m, &sliceSource{ops: ops})
	end := runCore(t, c, m, 100000)
	if end < 9*500 {
		t.Errorf("window-bounded run = %d cycles, expected near-serial %d", end, 10*500)
	}
}

func TestLoadBlocksRetirementUntilReady(t *testing.T) {
	m := newFakeMem(100, true)
	c := NewCore(coreCfg(), m, &sliceSource{ops: []Op{{Gap: 0, Addr: 0x40}}})
	for cyc := int64(0); cyc < 50; cyc++ {
		c.Tick(cyc)
	}
	if c.Retired != 0 {
		t.Fatalf("load retired before completion: retired=%d", c.Retired)
	}
	c.CompleteLoad(0, 50)
	c.Tick(51)
	if c.Retired != 1 {
		t.Errorf("load did not retire after completion: retired=%d", c.Retired)
	}
}

func TestStoreBackpressureStallsRetire(t *testing.T) {
	m := newFakeMem(1, false)
	m.storeFull = true
	c := NewCore(coreCfg(), m, &sliceSource{ops: []Op{{Gap: 0, Addr: 0x80, Store: true}}})
	for cyc := int64(0); cyc < 20; cyc++ {
		c.Tick(cyc)
	}
	if c.Retired != 0 {
		t.Fatal("store retired despite backpressure")
	}
	m.storeFull = false
	c.Tick(21)
	if c.Retired != 1 || m.stores != 1 {
		t.Errorf("store not issued after backpressure cleared: retired=%d stores=%d", c.Retired, m.stores)
	}
}

func TestLoadRejectionRetries(t *testing.T) {
	m := newFakeMem(5, false)
	m.rejectN = 3
	c := NewCore(coreCfg(), m, &sliceSource{ops: []Op{{Gap: 0, Addr: 0x40}}})
	runCore(t, c, m, 1000)
	if c.LoadsIssued != 1 {
		t.Errorf("loads issued = %d, want 1 (after retries)", c.LoadsIssued)
	}
	if c.FetchStalls < 3 {
		t.Errorf("fetch stalls = %d, want >= 3", c.FetchStalls)
	}
}

func TestDependentLoadWaitsForPrev(t *testing.T) {
	// Second load depends on the first; with async latency 200 the second
	// must not issue before ~200.
	m := newFakeMem(200, true)
	ops := []Op{{Gap: 0, Addr: 0x40}, {Gap: 0, Addr: 0x80, DependsPrev: true}}
	c := NewCore(coreCfg(), m, &sliceSource{ops: ops})
	for cyc := int64(0); cyc < 100; cyc++ {
		m.deliver(c, cyc)
		c.Tick(cyc)
	}
	if c.LoadsIssued != 1 {
		t.Fatalf("dependent load issued early: issued=%d", c.LoadsIssued)
	}
	runCore(t, c, m, 10000)
	if c.LoadsIssued != 2 {
		t.Errorf("dependent load never issued")
	}
}

func TestDoneSemantics(t *testing.T) {
	m := newFakeMem(1, false)
	c := NewCore(coreCfg(), m, &sliceSource{})
	if c.Done() {
		t.Error("core done before first tick (source not yet probed)")
	}
	c.Tick(0)
	if !c.Done() {
		t.Error("core with empty source not done after tick")
	}
}

func TestInstructionCountExact(t *testing.T) {
	ops := []Op{
		{Gap: 10, Addr: 0x40},
		{Gap: 5, Addr: 0x80, Store: true},
		{Gap: 7, Addr: 0xc0},
	}
	m := newFakeMem(3, false)
	c := NewCore(coreCfg(), m, &sliceSource{ops: ops})
	runCore(t, c, m, 1000)
	if want := uint64(10 + 1 + 5 + 1 + 7 + 1); c.Retired != want {
		t.Errorf("retired = %d, want %d", c.Retired, want)
	}
}
