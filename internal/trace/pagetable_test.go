package trace

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestPageTableMemoHitMatchesFreshBuild: a memo hit returns the live table
// itself, and that table holds exactly the permutation and post-shuffle
// RNG state a fresh build produces, so memoized generators stream the
// same addresses as unmemoized ones would.
func TestPageTableMemoHitMatchesFreshBuild(t *testing.T) {
	const pages = 4096
	r := rng{state: 0xfeedface}
	first := pageTableFor(pages, r)
	hit := pageTableFor(pages, r)
	if hit != first {
		t.Fatal("memo hit returned a different table while the first is live")
	}
	fresh := buildPageTable(pages, r)
	if !slices.Equal(hit.perm, fresh.perm) {
		t.Error("memoized permutation differs from a fresh build")
	}
	if hit.after != fresh.after {
		t.Errorf("memoized post-shuffle RNG state %#x, fresh build %#x", hit.after.state, fresh.after.state)
	}
	if other := pageTableFor(pages, rng{state: 0xfeedfacf}); other == first {
		t.Error("a different pre-shuffle state hit the same table")
	}
	runtime.KeepAlive(first)
}

// TestGeneratorStreamPinned: the first addresses of an mcf stream,
// recorded when every generator still shuffled its own table. A build
// through the memo (miss, then hit) must reproduce them exactly.
func TestGeneratorStreamPinned(t *testing.T) {
	want := []uint64{0x9006cdc0, 0xd5397200, 0xb2f3dcc0, 0xde3236c0, 0xa0281a80, 0x833ffd80}
	p, _ := ByName("mcf")
	var live []*Generator
	for _, build := range []string{"first", "memo hit"} {
		g, err := NewGenerator(p, 2<<30, 42)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, g)
		for i, w := range want {
			if op, _ := g.Next(); op.Addr != w {
				t.Errorf("%s build: op %d address %#x, want %#x", build, i, op.Addr, w)
			}
		}
	}
	if live[0].pagePerm != live[1].pagePerm {
		t.Error("second build did not hit the memo")
	}
}

// TestGeneratorsShareMemoizedTable: two generators with the same
// footprint and seed share one table (different profiles included), and
// their streams match a generator built after the memo entry is gone.
func TestGeneratorsShareMemoizedTable(t *testing.T) {
	mcf, _ := ByName("mcf")
	lbm, _ := ByName("lbm")
	if mcf.Footprint != lbm.Footprint {
		t.Fatalf("mcf and lbm footprints differ (%d vs %d); pick two profiles that match", mcf.Footprint, lbm.Footprint)
	}
	want := func() []uint64 {
		a, err := NewGenerator(mcf, 0, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewGenerator(lbm, 0, 7)
		if err != nil {
			t.Fatal(err)
		}
		if a.pagePerm != b.pagePerm {
			t.Error("same footprint and seed built two page tables")
		}
		if c := a.Clone(); c.pagePerm != a.pagePerm {
			t.Error("Clone copied the page table")
		}
		addrs := make([]uint64, 0, 2000)
		for range 2000 {
			op, _ := a.Next()
			addrs = append(addrs, op.Addr)
		}
		return addrs
	}()
	runtime.GC() // the table's users are gone: the next build may start fresh

	fresh, err := NewGenerator(mcf, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if op, _ := fresh.Next(); op.Addr != w {
			t.Fatalf("op %d: address %#x after a memo rebuild, %#x before", i, op.Addr, w)
		}
	}
}

// TestPageTableMemoConcurrent: concurrent warmups build generators from
// several goroutines at once; those asking for one key share one table.
func TestPageTableMemoConcurrent(t *testing.T) {
	const pages = 2048
	got := make([]*PageTable, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = pageTableFor(pages, rng{state: uint64(0xabc + i%2)})
		}()
	}
	wg.Wait()
	for i, tbl := range got {
		if tbl != got[i%2] {
			t.Errorf("goroutine %d got its own table for a shared key", i)
		}
	}
	if got[0] == got[1] {
		t.Error("two keys share one table")
	}
}

// TestPageTableMemoIsWeak: the memo does not keep a table alive. Once no
// generator holds it, the table is collected and its entry dropped.
func TestPageTableMemoIsWeak(t *testing.T) {
	k := tableKey{pages: 512, state: 0xdecafbad}
	pageTableFor(k.pages, rng{state: k.state})
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		tables.Lock()
		_, held := tables.m[k]
		tables.Unlock()
		if !held {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("memo entry survived its table's last user")
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkNewGenerator measures generator construction on a 1.5 GiB
// footprint (mcf: 393216 pages). A hit adopts a live memoized table; a
// miss shuffles a fresh one.
func BenchmarkNewGenerator(b *testing.B) {
	p, ok := ByName("mcf")
	if !ok {
		b.Fatal("unknown workload mcf")
	}
	b.Run("hit", func(b *testing.B) {
		live, err := NewGenerator(p, 0, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for b.Loop() {
			if _, err := NewGenerator(p, 0, 42); err != nil {
				b.Fatal(err)
			}
		}
		runtime.KeepAlive(live)
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		seed := uint64(1000)
		for b.Loop() {
			seed++
			if _, err := NewGenerator(p, 0, seed); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGeneratorClone measures the per-core cost a fork pays for its
// op source.
func BenchmarkGeneratorClone(b *testing.B) {
	p, ok := ByName("mcf")
	if !ok {
		b.Fatal("unknown workload mcf")
	}
	g, err := NewGenerator(p, 0, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		g.Clone()
	}
}
