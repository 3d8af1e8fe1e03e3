package trace

import (
	"slices"
	"sync"
	"testing"

	"secddr/internal/cpu"
)

// TestPageTableMemoHitMatchesFreshBuild: a set's hit returns the table it
// built, and that table holds exactly the permutation and post-shuffle
// RNG state a fresh build produces, so generators sharing it stream the
// same addresses as ones shuffling their own would. The set counts one
// build per key.
func TestPageTableMemoHitMatchesFreshBuild(t *testing.T) {
	const pages = 4096
	var set Tables
	r := rng{state: 0xfeedface}
	first := set.table(pages, r)
	hit := set.table(pages, r)
	if hit != first {
		t.Fatal("a second request for one key returned a different table")
	}
	fresh := buildPageTable(nil, pages, r)
	if !slices.Equal(hit.perm, fresh.perm) {
		t.Error("shared permutation differs from a fresh build")
	}
	if hit.after != fresh.after {
		t.Errorf("shared post-shuffle RNG state %#x, fresh build %#x", hit.after.state, fresh.after.state)
	}
	if other := set.table(pages, rng{state: 0xfeedfacf}); other == first {
		t.Error("a different pre-shuffle state hit the same table")
	}
	if n := set.Builds(); n != 2 {
		t.Errorf("set built %d tables for two keys", n)
	}
}

// TestGeneratorStreamPinned: the first addresses of an mcf stream,
// recorded when every generator still shuffled its own table. A private
// build and a build through a set (miss, then hit) must reproduce them
// exactly.
func TestGeneratorStreamPinned(t *testing.T) {
	want := []uint64{0x9006cdc0, 0xd5397200, 0xb2f3dcc0, 0xde3236c0, 0xa0281a80, 0x833ffd80}
	p, _ := ByName("mcf")
	set := new(Tables)
	var gens []*Generator
	for _, build := range []string{"private", "set miss", "set hit"} {
		from := set
		if build == "private" {
			from = nil
		}
		g, err := from.NewGenerator(p, 2<<30, 42)
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, g)
		for i, w := range want {
			if op, _ := g.Next(); op.Addr != w {
				t.Errorf("%s build: op %d address %#x, want %#x", build, i, op.Addr, w)
			}
		}
	}
	if gens[1].pagePerm != gens[2].pagePerm {
		t.Error("second build through the set did not share its table")
	}
	if gens[0].pagePerm == gens[1].pagePerm {
		t.Error("a private build shares the set's table")
	}
}

// TestGeneratorsShareMemoizedTable: two generators built through one set
// with the same footprint and seed share one table (different profiles
// included), and their streams match a generator that shuffled its own.
func TestGeneratorsShareMemoizedTable(t *testing.T) {
	mcf, _ := ByName("mcf")
	lbm, _ := ByName("lbm")
	if mcf.Footprint != lbm.Footprint {
		t.Fatalf("mcf and lbm footprints differ (%d vs %d); pick two profiles that match", mcf.Footprint, lbm.Footprint)
	}
	set := new(Tables)
	a, err := set.NewGenerator(mcf, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := set.NewGenerator(lbm, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.pagePerm != b.pagePerm {
		t.Error("same footprint and seed built two page tables")
	}
	if c := a.Clone(); c.pagePerm != a.pagePerm {
		t.Error("Clone copied the page table")
	}
	if n := set.Builds(); n != 1 {
		t.Errorf("set built %d tables for one key", n)
	}
	private, err := NewGenerator(mcf, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 2000 {
		got, _ := a.Next()
		if want, _ := private.Next(); got.Addr != want.Addr {
			t.Fatalf("op %d: address %#x from the shared table, %#x from a private one", i, got.Addr, want.Addr)
		}
	}
}

// TestPageTableMemoConcurrent: concurrent warmups build generators from
// several goroutines at once; those asking one set for one key share one
// table, built once.
func TestPageTableMemoConcurrent(t *testing.T) {
	const pages = 2048
	var set Tables
	got := make([]*PageTable, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = set.table(pages, rng{state: uint64(0xabc + i%2)})
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
	if n := set.Builds(); n != 2 {
		t.Errorf("set built %d tables for two keys", n)
	}
}

// TestPageTableIntoStaleBuffer: a table built into a larger buffer that
// still holds an earlier, different permutation equals a fresh build, in
// its permutation and its post-shuffle RNG state, and reuses the buffer.
func TestPageTableIntoStaleBuffer(t *testing.T) {
	mcf, _ := ByName("mcf")
	x, _ := ByName("exchange2")
	big, small := mcf.Footprint/_pageBytes, x.Footprint/_pageBytes
	if big != 393216 || small != 16384 {
		t.Fatalf("mcf/exchange2 have %d/%d pages; the test wants a stale buffer larger than the table", big, small)
	}
	buf := buildPageTable(nil, big, rng{state: 1}).perm
	for _, seed := range []uint64{2, 1 << 40, 0xfeedface} {
		r := rng{state: seed}
		got := buildPageTable(buf, small, r)
		want := buildPageTable(nil, small, r)
		if !slices.Equal(got.perm, want.perm) {
			t.Errorf("state %#x: permutation built in a stale buffer differs from a fresh build", seed)
		}
		if got.after != want.after {
			t.Errorf("state %#x: post-shuffle RNG state %#x, fresh build %#x", seed, got.after.state, want.after.state)
		}
		if &got.perm[0] != &buf[0] {
			t.Errorf("state %#x: build allocated although the buffer had room", seed)
		}
	}
	if got := buildPageTable(buf[:0:small-1], small, rng{}); len(got.perm) != int(small) || &got.perm[0] == &buf[0] {
		t.Error("a build into a short buffer did not allocate a table of the right length")
	}
}

// TestRunOpsMatchesGenerator: the borrowed-table stream RunOps hands out
// is the stream NewGenerator builds, op for op, whatever the reused
// buffer held before.
func TestRunOpsMatchesGenerator(t *testing.T) {
	var buf []uint32
	for _, name := range []string{"mcf", "exchange2", "lbm", "pr", "mcf"} {
		p, _ := ByName(name)
		for _, seed := range []uint64{1, 42, 0x9e3779b9 + 7} {
			g, err := NewGenerator(p, 2<<30, seed)
			if err != nil {
				t.Fatal(err)
			}
			const n = 3000
			var got []cpu.Op
			buf, err = RunOps(p, 2<<30, seed, n, buf, func(op cpu.Op) { got = append(got, op) })
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("%s seed %d: RunOps handed out %d ops, want %d", name, seed, len(got), n)
			}
			for i, op := range got {
				if want, _ := g.Next(); op != want {
					t.Fatalf("%s seed %d: op %d is %+v, NewGenerator's is %+v", name, seed, i, op, want)
				}
			}
		}
	}
	if _, err := RunOps(Profile{Name: "tiny"}, 0, 1, 1, nil, func(cpu.Op) {}); err == nil {
		t.Error("RunOps accepted a profile NewGenerator rejects")
	}
}

// FuzzPageTableInto: for any table size, RNG state and stale buffer
// length, a build into the stale buffer equals a fresh build.
func FuzzPageTableInto(f *testing.F) {
	f.Add(uint16(4096), uint64(42), uint16(8192))
	f.Add(uint16(1), uint64(0), uint16(0))
	f.Add(uint16(300), uint64(0xfeedface), uint16(299))
	f.Fuzz(func(t *testing.T, pages uint16, seed uint64, staleLen uint16) {
		stale := make([]uint32, staleLen)
		for i := range stale {
			stale[i] = ^uint32(i) // anything but the identity
		}
		r := rng{state: seed}
		got := buildPageTable(stale, uint64(pages), r)
		want := buildPageTable(nil, uint64(pages), r)
		if !slices.Equal(got.perm, want.perm) || got.after != want.after {
			t.Fatalf("%d pages from state %#x: a build into a %d-entry stale buffer differs from a fresh build", pages, seed, staleLen)
		}
		if staleLen >= pages && pages > 0 && &got.perm[0] != &stale[0] {
			t.Fatalf("%d pages: build allocated although the %d-entry buffer had room", pages, staleLen)
		}
	})
}

// BenchmarkNewGenerator measures generator construction on a 1.5 GiB
// footprint (mcf: 393216 pages). A hit adopts a table its set already
// holds; a private build shuffles a fresh one.
func BenchmarkNewGenerator(b *testing.B) {
	p, ok := ByName("mcf")
	if !ok {
		b.Fatal("unknown workload mcf")
	}
	b.Run("hit", func(b *testing.B) {
		set := new(Tables)
		if _, err := set.NewGenerator(p, 0, 42); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for b.Loop() {
			if _, err := set.NewGenerator(p, 0, 42); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := NewGenerator(p, 0, 42); err != nil {
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
