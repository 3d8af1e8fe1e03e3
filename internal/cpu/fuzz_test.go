package cpu

import (
	"testing"

	"secddr/internal/config"
)

// slotMem is a memory whose every asynchronous load is named by the ROB
// slot the core issued it from. It records each in-flight load's address
// and due cycle per slot, delivers due loads in an order the fuzz input
// picks, and on every delivery checks that the slot still holds that load:
// an unready load at the recorded address.
type slotMem struct {
	t        *testing.T
	c        *Core
	addr     []uint64 // per ROB slot: the in-flight load's address
	due      []int64  // per ROB slot: its completion cycle, or -1
	inflight int
	order    []byte // delivery-order choices, consumed cyclically
	k        int
}

// Each op's address encodes how slotMem serves it: bit 0 set makes the
// load asynchronous, and bits 1-8 are its latency.
func opAddr(i int, async bool, lat byte) uint64 {
	a := uint64(i+1)<<12 | uint64(lat)<<1
	if async {
		a |= 1
	}
	return a
}

func (m *slotMem) Load(addr uint64, now int64, slot int) LoadResult {
	lat := int64(addr>>1&0xff) + 1
	if addr&1 == 0 {
		return LoadResult{Accepted: true, ReadyAt: now + lat}
	}
	if m.due[slot] >= 0 {
		m.t.Fatalf("cycle %d: load %#x issued from slot %d, which still waits for load %#x",
			now, addr, slot, m.addr[slot])
	}
	m.addr[slot], m.due[slot] = addr, now+lat
	m.inflight++
	return LoadResult{Accepted: true, Async: true}
}

func (m *slotMem) Store(addr uint64, now int64) bool { return true }

// deliver completes every load due by now, in the order the fuzz input
// picks.
func (m *slotMem) deliver(now int64) {
	for {
		var due []int
		for s, d := range m.due {
			if d >= 0 && d <= now {
				due = append(due, s)
			}
		}
		if len(due) == 0 {
			return
		}
		s := due[int(m.order[m.k%len(m.order)])%len(due)]
		m.k++
		if e := &m.c.rob[s]; e.kind != kindLoad || e.ready || e.addr != m.addr[s] {
			m.t.Fatalf("cycle %d: delivery to slot %d for load %#x finds %+v", now, s, m.addr[s], *e)
		}
		m.c.CompleteLoad(s, now)
		m.due[s] = -1
		m.inflight--
	}
}

// nextDue returns the earliest cycle an in-flight load completes.
func (m *slotMem) nextDue() int64 {
	next := EventNever
	for _, d := range m.due {
		if d >= 0 && d < next {
			next = d
		}
	}
	return next
}

// FuzzCoreCompletionOrder checks the slot-tag invariant CompleteLoad relies
// on: whatever the op mix (synchronous hits, asynchronous loads, stores,
// load-load dependencies), the ROB size, and the latency and order of
// completions, a delivery to a slot always finds that slot's own unready
// load, no slot is handed out twice while its load is in flight, and every
// op retires. Each input byte is one op: bits 0-1 choose a synchronous
// load, an asynchronous load, a store, or a dependent asynchronous load;
// bits 2-4 the preceding gap; bits 5-7 scale the latency. The first byte
// also sizes the ROB (4 to 35 entries), and the input read backwards picks
// the delivery order among loads due in the same cycle.
func FuzzCoreCompletionOrder(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1, 0xe1, 0x21, 3, 3, 2, 0, 0x41})
	f.Add([]byte{0xff, 0xe3, 0xe1, 0x03, 0x01, 0x02, 0xe0, 0x23, 0x61})
	f.Add([]byte{0x20, 0xe1, 0x01, 0xe1, 0x01, 0xe1, 0x01, 0xe1, 0x01, 0xe1, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		ops := make([]Op, len(data))
		want := uint64(0)
		for i, b := range data {
			kind, gap, lat := b&3, int(b>>2&7), b>>5*36
			ops[i] = Op{Gap: gap, Addr: opAddr(i, kind == 1 || kind == 3, lat),
				Store: kind == 2, DependsPrev: kind == 3}
			want += uint64(gap) + 1
		}
		cfg := config.Table1(config.ModeUnprotected).Core
		cfg.ROBEntries = 4 + int(data[0]&31)
		order := make([]byte, len(data))
		for i, b := range data {
			order[len(data)-1-i] = b
		}
		m := &slotMem{t: t, addr: make([]uint64, cfg.ROBEntries), due: make([]int64, cfg.ROBEntries), order: order}
		for s := range m.due {
			m.due[s] = -1
		}
		c := NewCore(cfg, m, &sliceSource{ops: ops})
		m.c = c
		for now := int64(0); !c.Done(); {
			if now > 1<<22 {
				t.Fatalf("no progress by cycle %d: %v, %d loads in flight", now, c, m.inflight)
			}
			m.deliver(now)
			c.Tick(now)
			now = min(c.NextEvent(now), m.nextDue())
			if now == EventNever && !c.Done() {
				t.Fatalf("core blocked with no load in flight: %v", c)
			}
		}
		if c.Retired != want || m.inflight != 0 {
			t.Fatalf("retired %d of %d instructions, %d loads in flight", c.Retired, want, m.inflight)
		}
	})
}
