package secmem

import (
	"container/heap"
	"math/rand/v2"
	"testing"

	"secddr/internal/config"
)

func newEngine(t testing.TB, mode config.Mode, mutate func(*config.Config)) *Engine {
	t.Helper()
	cfg := config.Table1(mode)
	cfg.DRAM.RefreshEnabled = false
	if mutate != nil {
		mutate(&cfg)
		cfg.Normalize()
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine(%v): %v", mode, err)
	}
	return e
}

// runUntil ticks until n reads complete or the cycle budget is exhausted.
func runUntil(t *testing.T, e *Engine, n int, budget int64) []ReadDone {
	t.Helper()
	var out []ReadDone
	for cyc := int64(0); cyc < budget && len(out) < n; cyc++ {
		out = append(out, e.Tick(cyc)...)
	}
	if len(out) < n {
		t.Fatalf("%d/%d reads completed in %d cycles: %v", len(out), n, budget, e)
	}
	return out
}

func latencyOfSingleRead(t *testing.T, mode config.Mode, mutate func(*config.Config)) int64 {
	t.Helper()
	e := newEngine(t, mode, mutate)
	e.StartRead(0x10000, 0)
	done := runUntil(t, e, 1, 5000)
	return done[0].ReadyMem
}

func TestUnprotectedBaselineLatency(t *testing.T) {
	lat := latencyOfSingleRead(t, config.ModeUnprotected, nil)
	if lat < 40 || lat > 120 {
		t.Errorf("unprotected cold read latency = %d mem cycles, implausible", lat)
	}
}

func TestXTSAddsCryptoLatency(t *testing.T) {
	plain := latencyOfSingleRead(t, config.ModeUnprotected, nil)
	xts := latencyOfSingleRead(t, config.ModeEncryptOnlyXTS, nil)
	e := newEngine(t, config.ModeEncryptOnlyXTS, nil)
	if got, want := xts-plain, e.CryptoMemCycles(); got != want {
		t.Errorf("XTS latency delta = %d, want crypto latency %d", got, want)
	}
}

func TestInvisiMemAddsTwoMACLatencies(t *testing.T) {
	xts := latencyOfSingleRead(t, config.ModeEncryptOnlyXTS, nil)
	inv := latencyOfSingleRead(t, config.ModeInvisiMem, nil)
	e := newEngine(t, config.ModeInvisiMem, nil)
	if got, want := inv-xts, e.CryptoMemCycles(); got != want {
		t.Errorf("InvisiMem delta over XTS = %d, want %d (2c vs c)", got, want)
	}
}

func TestCounterModeColdMissPaysCounterFetch(t *testing.T) {
	plain := latencyOfSingleRead(t, config.ModeUnprotected, nil)
	ctr := latencyOfSingleRead(t, config.ModeEncryptOnlyCTR, nil)
	if ctr <= plain {
		t.Errorf("cold counter-mode read (%d) not slower than unprotected (%d)", ctr, plain)
	}
}

func TestCounterModeHitHidesDecryption(t *testing.T) {
	// Second read sharing the counter line: OTP pre-computed, no adder.
	e := newEngine(t, config.ModeEncryptOnlyCTR, nil)
	e.StartRead(0x10000, 0)
	first := runUntil(t, e, 1, 5000)[0].ReadyMem
	e.StartRead(0x10040, first+1) // same counter line (64 counters cover 4KB)
	second := runUntil(t, e, 1, 5000)[0].ReadyMem

	eu := newEngine(t, config.ModeUnprotected, nil)
	eu.StartRead(0x10000, 0)
	f := runUntil(t, eu, 1, 5000)[0].ReadyMem
	eu.StartRead(0x10040, f+1)
	s := runUntil(t, eu, 1, 5000)[0].ReadyMem

	if (second - first) > (s - f) {
		t.Errorf("counter-hit read latency %d exceeds unprotected %d: decryption not hidden",
			second-first, s-f)
	}
}

func TestTreeWalkGeneratesMetadataTraffic(t *testing.T) {
	e := newEngine(t, config.ModeIntegrityTree, nil)
	e.StartRead(0x200000, 0)
	runUntil(t, e, 1, 10000)
	// 64-ary tree over 16GB: counter leaf + 3 upper levels on a cold walk.
	if e.MetaReads != 4 {
		t.Errorf("cold tree walk fetched %d metadata lines, want 4", e.MetaReads)
	}
}

func TestTreeWalkStopsAtCachedAncestor(t *testing.T) {
	e := newEngine(t, config.ModeIntegrityTree, nil)
	e.StartRead(0x200000, 0)
	runUntil(t, e, 1, 10000)
	before := e.MetaReads
	// A distant address shares only upper tree levels: the walk must stop
	// at the first cached ancestor rather than re-fetching everything.
	e.StartRead(0x200000+64*64*64*64, 1000) // different leaf and L1 node
	runUntil(t, e, 1, 10000)
	delta := e.MetaReads - before
	if delta == 0 || delta >= 4 {
		t.Errorf("second walk fetched %d lines, want between 1 and 3", delta)
	}
}

func TestTreeSlowerThanSecDDR(t *testing.T) {
	tree := latencyOfSingleRead(t, config.ModeIntegrityTree, nil)
	sec := latencyOfSingleRead(t, config.ModeSecDDRCTR, nil)
	if tree <= sec {
		t.Errorf("cold tree read (%d) not slower than SecDDR (%d)", tree, sec)
	}
}

func TestSecDDRMatchesEncryptOnlyOnReads(t *testing.T) {
	// SecDDR's only read-path difference vs encrypt-only is the write burst
	// (no writes here), so single-read latency must match exactly.
	sec := latencyOfSingleRead(t, config.ModeSecDDRXTS, nil)
	enc := latencyOfSingleRead(t, config.ModeEncryptOnlyXTS, nil)
	if sec != enc {
		t.Errorf("SecDDR+XTS read = %d, encrypt-only = %d; want identical", sec, enc)
	}
}

func TestWritesGenerateCounterRMW(t *testing.T) {
	e := newEngine(t, config.ModeSecDDRCTR, nil)
	e.StartWrite(0x40000, 0)
	for cyc := int64(0); cyc < 2000 && !e.Idle(); cyc++ {
		e.Tick(cyc)
	}
	if e.MetaReads != 1 {
		t.Errorf("write issued %d counter fetches, want 1 (RMW)", e.MetaReads)
	}
	if !e.Idle() {
		t.Errorf("engine not idle after write drain: %v", e)
	}
}

func TestXTSWritesNoMetadata(t *testing.T) {
	e := newEngine(t, config.ModeSecDDRXTS, nil)
	e.StartWrite(0x40000, 0)
	for cyc := int64(0); cyc < 2000 && !e.Idle(); cyc++ {
		e.Tick(cyc)
	}
	if e.MetaReads != 0 {
		t.Errorf("XTS write generated %d metadata reads, want 0", e.MetaReads)
	}
}

func TestDirtyMetadataEvictionsWriteBack(t *testing.T) {
	e := newEngine(t, config.ModeSecDDRCTR, func(c *config.Config) {
		// Tiny metadata cache to force evictions quickly.
		c.Security.MetadataCache = config.CacheGeom{SizeBytes: 1 << 10, LineBytes: 64, Ways: 2, HitLatency: 2}
	})
	var cyc int64
	for i := 0; i < 200; i++ {
		// Each 4KB page has its own counter line: stride pages.
		e.StartWrite(uint64(i)*4096, cyc)
		for j := 0; j < 20; j++ {
			e.Tick(cyc)
			cyc++
		}
	}
	if e.MetaWritebacks == 0 {
		t.Error("no dirty metadata writebacks despite heavy counter churn")
	}
}

func TestHashTreeDeepWalk(t *testing.T) {
	e := newEngine(t, config.ModeIntegrityTree, func(c *config.Config) {
		c.Security.TreeArity = 8
		c.Security.HashTree = true
		c.Security.Encryption = config.EncXTS
	})
	e.StartRead(0x300000, 0)
	runUntil(t, e, 1, 20000)
	// 8-ary hash tree over 16GB: 9 in-memory levels, all cold.
	if e.MetaReads != 9 {
		t.Errorf("cold hash-tree walk fetched %d lines, want 9", e.MetaReads)
	}
}

func TestBacklogDrainsUnderPressure(t *testing.T) {
	e := newEngine(t, config.ModeIntegrityTree, nil)
	var cyc int64
	tokens := make(map[uint64]bool)
	for i := 0; i < 300; i++ {
		// Random-ish pages: every read walks the tree, flooding the queue.
		tok := e.StartRead(uint64(i*7919%2048)*4096, cyc)
		tokens[tok] = true
		for _, d := range e.Tick(cyc) {
			delete(tokens, d.Token)
		}
		cyc++
	}
	for ; cyc < 1_000_000 && len(tokens) > 0; cyc++ {
		for _, d := range e.Tick(cyc) {
			delete(tokens, d.Token)
		}
	}
	if len(tokens) != 0 {
		t.Fatalf("%d reads never completed under pressure: %v", len(tokens), e)
	}
	if !e.Idle() {
		// Fire-and-forget metadata writebacks may still drain; give it time.
		for ; cyc < 2_000_000 && !e.Idle(); cyc++ {
			e.Tick(cyc)
		}
		if !e.Idle() {
			t.Errorf("engine never reached idle: %v", e)
		}
	}
}

func TestTokensUniqueAndOrdered(t *testing.T) {
	e := newEngine(t, config.ModeSecDDRXTS, nil)
	t1 := e.StartRead(0x1000, 0)
	t2 := e.StartRead(0x2000, 0)
	if t1 == t2 {
		t.Error("duplicate tokens")
	}
	done := runUntil(t, e, 2, 10000)
	seen := map[uint64]bool{}
	for _, d := range done {
		if seen[d.Token] {
			t.Error("token completed twice")
		}
		seen[d.Token] = true
	}
}

func TestForwardedReadCompletesImmediately(t *testing.T) {
	e := newEngine(t, config.ModeUnprotected, nil)
	e.StartWrite(0x9000, 0)
	e.StartRead(0x9000, 1)
	done := runUntil(t, e, 1, 100)
	if done[0].ReadyMem > 10 {
		t.Errorf("forwarded read ready at %d, want near-immediate", done[0].ReadyMem)
	}
}

// checkSlabFree asserts that an idle engine has returned every transaction
// slot exactly once.
func checkSlabFree(t *testing.T, e *Engine) {
	t.Helper()
	if len(e.freeTxns) != len(e.txns) {
		t.Fatalf("idle engine holds %d of %d transaction slots", len(e.txns)-len(e.freeTxns), len(e.txns))
	}
	seen := make(map[int32]bool)
	for _, i := range e.freeTxns {
		if seen[i] {
			t.Fatalf("slot %d freed twice", i)
		}
		seen[i] = true
	}
}

// TestForwardedReadHoldsSlotForWalk covers a read whose data arrives by
// write forwarding while its counter line misses: the read finishes inside
// StartRead, before the counter fetch is issued, and that fetch's arrival
// must neither finish the read again nor free its slot a second time.
func TestForwardedReadHoldsSlotForWalk(t *testing.T) {
	e := newEngine(t, config.ModeSecDDRCTR, func(c *config.Config) {
		// Two ways per set: two more counter lines in page 0's set evict it.
		c.Security.MetadataCache = config.CacheGeom{SizeBytes: 1 << 10, LineBytes: 64, Ways: 2, HitLatency: 2}
	})
	e.StartWrite(0, 0)
	for _, page := range []uint64{8, 16} {
		e.StartWrite(page*4096, 0)
	}
	metaBefore := e.MetaReads
	e.StartRead(0, 1)
	// Both arrive by forwarding: the data from the queued write, the
	// counter line from its dirty eviction's queued writeback.
	if e.ForwardedArrival != 2 {
		t.Fatalf("ForwardedArrival = %d, want 2 (data and counter line)", e.ForwardedArrival)
	}
	if e.MetaReads != metaBefore+1 {
		t.Fatalf("read issued %d counter fetches, want 1", e.MetaReads-metaBefore)
	}
	done := e.Tick(1)
	if len(done) != 1 || done[0].ReadyMem != 1 {
		t.Fatalf("forwarded read completions %+v, want one ready at cycle 1", done)
	}
	for cyc := int64(2); cyc < 100_000 && !e.Idle(); cyc++ {
		e.Tick(cyc)
	}
	if !e.Idle() {
		t.Fatalf("engine never drained: %v", e)
	}
	checkSlabFree(t, e)
}

// TestTxnSlabReuse floods the engine with tree walks, so reads back up
// behind full queues, and checks that slots are reused rather than the
// slab growing per read, and that every slot comes back once drained.
func TestTxnSlabReuse(t *testing.T) {
	e := newEngine(t, config.ModeIntegrityTree, nil)
	tokens := make(map[uint64]bool)
	var cyc int64
	for round := 0; round < 3; round++ {
		for i := 0; i < 300; i++ {
			tokens[e.StartRead(uint64((round*300+i)*7919%4096)*4096, cyc)] = true
			for _, d := range e.Tick(cyc) {
				delete(tokens, d.Token)
			}
			cyc++
		}
		for deadline := cyc + 1_000_000; len(tokens) > 0 || !e.Idle(); cyc++ {
			if cyc == deadline {
				t.Fatalf("round %d: %d reads never completed: %v", round, len(tokens), e)
			}
			for _, d := range e.Tick(cyc) {
				delete(tokens, d.Token)
			}
		}
		checkSlabFree(t, e)
	}
	if e.ReadsStarted != 900 || len(e.txns) >= 300 {
		t.Errorf("%d reads used %d transaction slots, want reuse across rounds", e.ReadsStarted, len(e.txns))
	}
}

// stdReadyHeap drives a readyHeap through container/heap, the pop order
// the typed heap must reproduce.
type stdReadyHeap struct{ h *readyHeap }

func (s stdReadyHeap) Len() int           { return len(*s.h) }
func (s stdReadyHeap) Less(i, j int) bool { return (*s.h)[i].ReadyMem < (*s.h)[j].ReadyMem }
func (s stdReadyHeap) Swap(i, j int)      { (*s.h)[i], (*s.h)[j] = (*s.h)[j], (*s.h)[i] }
func (s stdReadyHeap) Push(x any)         { *s.h = append(*s.h, x.(ReadDone)) }
func (s stdReadyHeap) Pop() any {
	old := *s.h
	n := len(old)
	x := old[n-1]
	*s.h = old[:n-1]
	return x
}

// TestReadyHeapMatchesContainerHeap pushes and pops completions with many
// equal ReadyMem values through the typed heap and through container/heap
// and asserts the same pop order, ties included.
func TestReadyHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	var typed, std readyHeap
	for i := 0; i < 5000; i++ {
		if len(typed) == 0 || rng.IntN(3) != 0 {
			d := ReadDone{Token: uint64(i), ReadyMem: int64(rng.IntN(20))}
			typed.push(d)
			heap.Push(stdReadyHeap{&std}, d)
			continue
		}
		a, b := typed.pop(), heap.Pop(stdReadyHeap{&std}).(ReadDone)
		if a != b {
			t.Fatalf("pop %d: typed heap %+v, container/heap %+v", i, a, b)
		}
	}
}
