package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"secddr/internal/config"
)

func small(t *testing.T) *Cache {
	t.Helper()
	c, err := New(config.CacheGeom{SizeBytes: 1 << 12, LineBytes: 64, Ways: 4, HitLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMissThenHit(t *testing.T) {
	c := small(t)
	if c.Access(0x1000, false) {
		t.Fatal("cold cache hit")
	}
	c.Fill(0x1000, false)
	if !c.Access(0x1000, false) {
		t.Fatal("miss after fill")
	}
	if !c.Access(0x1020, false) {
		t.Fatal("same line, different offset missed")
	}
	if c.Hits != 2 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(t) // 16 sets, 4 ways
	// Fill 5 lines mapping to set 0: line addresses with same set index.
	setStride := uint64(16 * 64) // sets * lineBytes
	for i := uint64(0); i < 4; i++ {
		c.Fill(i*setStride, false)
	}
	// Touch line 0 so line 1 becomes LRU.
	c.Access(0, false)
	v, has := c.Fill(4*setStride, false)
	if !has {
		t.Fatal("no victim from full set")
	}
	if v.Addr != setStride {
		t.Errorf("victim = %#x, want %#x (LRU)", v.Addr, setStride)
	}
	if !c.Probe(0) {
		t.Error("recently used line evicted")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := small(t)
	setStride := uint64(16 * 64)
	c.Fill(0, false)
	c.Access(0, true) // dirty it
	for i := uint64(1); i <= 4; i++ {
		c.Fill(i*setStride, false)
	}
	if c.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Writebacks)
	}
}

func TestFillDirty(t *testing.T) {
	c := small(t)
	c.Fill(0x40, true)
	setStride := uint64(16 * 64)
	var sawDirty bool
	for i := uint64(1); i <= 4; i++ {
		if v, has := c.Fill(0x40+i*setStride, false); has && v.Dirty {
			sawDirty = true
		}
	}
	if !sawDirty {
		t.Error("dirty-filled line evicted clean")
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := small(t)
	c.Fill(0x1000, false)
	a, h, m := c.Accesses, c.Hits, c.Misses
	c.Probe(0x1000)
	c.Probe(0x2000)
	if c.Accesses != a || c.Hits != h || c.Misses != m {
		t.Error("Probe changed statistics")
	}
}

func TestFillIdempotentWhenPresent(t *testing.T) {
	c := small(t)
	c.Fill(0x100, false)
	if _, has := c.Fill(0x100, false); has {
		t.Error("re-fill of present line produced a victim")
	}
}

func TestVictimAddressReconstruction(t *testing.T) {
	// The evicted address must map back to the same set it lived in, and
	// no address may store the tag that marks an invalid way.
	c := small(t)
	f := func(raw uint64) bool {
		addr := raw &^ 63
		set1, tag1 := c.index(addr)
		back := c.reconstruct(set1, tag1)
		set2, tag2 := c.index(back)
		return tag1 != 0 && set1 == set2 && tag1 == tag2 && back == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestCapacityProperty(t *testing.T) {
	// A working set equal to capacity, accessed twice sequentially, must hit
	// on the second pass (LRU, no conflict aliasing within a pass).
	c := small(t)
	lines := c.Geom().SizeBytes / c.Geom().LineBytes
	for i := 0; i < lines; i++ {
		addr := uint64(i * 64)
		if !c.Access(addr, false) {
			c.Fill(addr, false)
		}
	}
	for i := 0; i < lines; i++ {
		if !c.Access(uint64(i*64), false) {
			t.Fatalf("second pass missed line %d with working set == capacity", i)
		}
	}
}

func TestRejectsBadGeometry(t *testing.T) {
	if _, err := New(config.CacheGeom{SizeBytes: 100, LineBytes: 64, Ways: 3}); err == nil {
		t.Error("New accepted invalid geometry")
	}
}

// churn runs a seeded mix of accesses and fills over twice c's capacity,
// so c ends with evictions, dirty lines, advanced recency and statistics.
func churn(c *Cache, seed uint64) {
	lines := uint64(2 * c.geom.SizeBytes / c.geom.LineBytes)
	x := seed
	for i := range 4 * int(lines) {
		x = x*6364136223846793005 + 1442695040888963407
		a := (x >> 33) % lines * uint64(c.geom.LineBytes)
		if !c.Access(a, i%3 == 0) {
			c.Fill(a, i%5 == 0)
		}
	}
}

// sharesArray reports whether a and b share any way-state backing array.
func sharesArray(a, b *Cache) bool {
	return &a.tags[0] == &b.tags[0] || &a.lastUse[0] == &b.lastUse[0] || &a.dirty[0] == &b.dirty[0]
}

// TestCloneIntoRecycledCache: a clone written into a used cache of the
// same geometry reuses that cache's arrays, equals a fresh clone in every
// field, and shares no array with its source; a target of another
// geometry is left alone and the clone allocates.
func TestCloneIntoRecycledCache(t *testing.T) {
	src, used := small(t), small(t)
	churn(src, 1)
	churn(used, 2)
	fresh := src.Clone(nil)
	if !reflect.DeepEqual(fresh, src) || sharesArray(fresh, src) {
		t.Fatal("Clone(nil) is not an independent copy of its source")
	}
	usedTags := &used.tags[0]
	got := src.Clone(used)
	if got != used || &got.tags[0] != usedTags {
		t.Error("Clone into a cache of the same geometry did not reuse its storage")
	}
	if !reflect.DeepEqual(got, fresh) {
		t.Errorf("Clone into a used cache differs from a fresh clone:\ngot   %+v\nfresh %+v", *got, *fresh)
	}
	if sharesArray(got, src) {
		t.Error("Clone into a used cache shares storage with its source")
	}
	got.Fill(0x40, true)
	if !reflect.DeepEqual(fresh, src) {
		t.Error("writing the clone changed its source")
	}

	other, err := New(config.CacheGeom{SizeBytes: 1 << 13, LineBytes: 64, Ways: 4, HitLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	churn(other, 3)
	before := other.Clone(nil)
	got = src.Clone(other)
	if got == other || !reflect.DeepEqual(got, fresh) || sharesArray(got, other) {
		t.Error("Clone into a cache of another geometry did not make a fresh copy")
	}
	if !reflect.DeepEqual(other, before) {
		t.Error("Clone changed a target of another geometry")
	}
}

// TestResetEqualsNew: resetting a used cache of the same geometry reuses
// its arrays and yields exactly what New builds; a nil cache or one of
// another geometry yields a fresh New.
func TestResetEqualsNew(t *testing.T) {
	geom := small(t).Geom()
	want, err := New(geom)
	if err != nil {
		t.Fatal(err)
	}
	used := small(t)
	churn(used, 4)
	got, err := used.Reset(geom)
	if err != nil {
		t.Fatal(err)
	}
	if got != used {
		t.Error("Reset of a cache of the same geometry did not reuse it")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Reset differs from New:\ngot  %+v\nwant %+v", *got, *want)
	}
	var none *Cache
	if got, err := none.Reset(geom); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("Reset of a nil cache differs from New (err %v)", err)
	}
	wide := geom
	wide.Ways = 8
	wantWide, err := New(wide)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := want.Reset(wide); err != nil || got == want || !reflect.DeepEqual(got, wantWide) {
		t.Errorf("Reset of a cache of another geometry did not build a fresh one (err %v)", err)
	}
	if _, err := none.Reset(config.CacheGeom{SizeBytes: 100, LineBytes: 64, Ways: 3}); err == nil {
		t.Error("Reset accepted invalid geometry")
	}
}
