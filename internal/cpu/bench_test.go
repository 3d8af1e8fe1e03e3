package cpu_test

import (
	"testing"

	"secddr/internal/config"
	"secddr/internal/cpu"
	"secddr/internal/trace"
)

// loopSource replays a recorded op stream forever, so a benchmark can tick
// one core for any number of cycles without rebuilding it.
type loopSource struct {
	ops []cpu.Op
	i   int
}

func (s *loopSource) Next() (cpu.Op, bool) {
	op := s.ops[s.i]
	if s.i++; s.i == len(s.ops) {
		s.i = 0
	}
	return op, true
}

// latencyMem is a memory with fixed latencies: a load to a 64-byte line in
// its direct-mapped tag array hits and is ready after hitLat cycles; a
// miss installs the line and completes asynchronously missLat cycles
// later. One latency for every miss makes completions FIFO, so the
// in-flight loads fit a ring the size of the ROB.
type latencyMem struct {
	tags    []uint64   // line address + 1 per set; 0 is empty
	ring    []inflight // in-flight misses, oldest at head
	head, n int
}

const hitLat, missLat = 30, 400

type inflight struct {
	slot int
	due  int64
}

func newLatencyMem(sets, robEntries int) *latencyMem {
	return &latencyMem{tags: make([]uint64, sets), ring: make([]inflight, robEntries)}
}

func (m *latencyMem) Load(addr uint64, now int64, slot int) cpu.LoadResult {
	line := addr >> 6
	if set := &m.tags[line%uint64(len(m.tags))]; *set != line+1 {
		*set = line + 1
		m.ring[(m.head+m.n)%len(m.ring)] = inflight{slot: slot, due: now + missLat}
		m.n++
		return cpu.LoadResult{Accepted: true, Async: true}
	}
	return cpu.LoadResult{Accepted: true, ReadyAt: now + hitLat}
}

func (m *latencyMem) Store(addr uint64, now int64) bool { return true }

// deliver completes every load due by now.
func (m *latencyMem) deliver(c *cpu.Core, now int64) {
	for ; m.n > 0 && m.ring[m.head].due <= now; m.n-- {
		c.CompleteLoad(m.ring[m.head].slot, now)
		m.head = (m.head + 1) % len(m.ring)
	}
}

// nextDue returns the cycle the oldest in-flight load completes.
func (m *latencyMem) nextDue() int64 {
	if m.n == 0 {
		return cpu.EventNever
	}
	return m.ring[m.head].due
}

// BenchmarkCoreTick times one event-driven step of a Table I core — deliver
// due completions, Tick, NextEvent, jump to the earlier of the core's next
// event and the next completion — over the first 1<<16 ops of trace
// profile mcf at seed 42, replayed in a loop. Loads hitting a 2 MiB
// direct-mapped tag array are ready after 30 cycles; misses complete
// asynchronously after 400. One op is one step; the step allocates
// nothing.
func BenchmarkCoreTick(b *testing.B) {
	p, ok := trace.ByName("mcf")
	if !ok {
		b.Fatal("no trace profile mcf")
	}
	ops := make([]cpu.Op, 0, 1<<16)
	if _, err := trace.RunOps(p, 0, 42, cap(ops), nil, func(op cpu.Op) { ops = append(ops, op) }); err != nil {
		b.Fatal(err)
	}
	cfg := config.Table1(config.ModeUnprotected).Core
	mem := newLatencyMem(1<<15, cfg.ROBEntries)
	c := cpu.NewCore(cfg, mem, &loopSource{ops: ops})
	now := int64(0)
	b.ReportAllocs()
	for b.Loop() {
		mem.deliver(c, now)
		c.Tick(now)
		now = min(c.NextEvent(now), mem.nextDue())
	}
	b.ReportMetric(float64(c.Retired)/float64(now+1), "ipc")
}
