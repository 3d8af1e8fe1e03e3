package cache

import (
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
