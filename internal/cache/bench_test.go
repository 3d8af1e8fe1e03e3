package cache

import (
	"math/rand/v2"
	"testing"

	"secddr/internal/config"
)

// sink keeps benchmarked results live.
var sink struct {
	hit    bool
	victim Victim
	cache  *Cache
	lines  int
}

// benchAddrs returns n line addresses drawn uniformly from a footprint of
// twice the cache's capacity, from a fixed seed: about half of them hit a
// warmed cache, and fills keep evicting.
func benchAddrs(g config.CacheGeom, n int) []uint64 {
	rng := rand.New(rand.NewPCG(42, 0xcac4e))
	lines := uint64(2 * g.SizeBytes / g.LineBytes)
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = rng.Uint64N(lines) * uint64(g.LineBytes)
	}
	return addrs
}

// warmedLLC returns the Table I LLC after the address stream has been
// accessed and filled once, so every set is full and a quarter of its
// lines are dirty.
func warmedLLC(b *testing.B, addrs []uint64) *Cache {
	c, err := New(config.Table1(config.ModeUnprotected).LLC)
	if err != nil {
		b.Fatal(err)
	}
	for i, a := range addrs {
		if !c.Access(a, i%4 == 0) {
			c.Fill(a, i%4 == 0)
		}
	}
	return c
}

// BenchmarkCache times the per-access and per-fork operations of the
// Table I LLC (4 MiB, 16 ways) on a seeded address stream: one Access,
// one Fill, one Clone of the whole warmed cache into fresh storage and
// one into a recycled cache of the same geometry, and one VisitResident
// walk over it.
func BenchmarkCache(b *testing.B) {
	const n = 1 << 18 // four passes over the LLC's 65536 lines
	addrs := benchAddrs(config.Table1(config.ModeUnprotected).LLC, n)
	b.Run("access", func(b *testing.B) {
		c := warmedLLC(b, addrs)
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			sink.hit = c.Access(addrs[i%n], i%4 == 0)
			i++
		}
	})
	b.Run("fill", func(b *testing.B) {
		c := warmedLLC(b, addrs)
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			sink.victim, sink.hit = c.Fill(addrs[i%n], i%4 == 0)
			i++
		}
	})
	b.Run("clone", func(b *testing.B) {
		c := warmedLLC(b, addrs)
		b.ReportAllocs()
		for b.Loop() {
			sink.cache = c.Clone(nil)
		}
	})
	b.Run("clone-into", func(b *testing.B) {
		c := warmedLLC(b, addrs)
		into := c.Clone(nil)
		b.ReportAllocs()
		for b.Loop() {
			sink.cache = c.Clone(into)
		}
	})
	b.Run("visit", func(b *testing.B) {
		c := warmedLLC(b, addrs)
		b.ReportAllocs()
		for b.Loop() {
			lines := 0
			c.VisitResident(func(uint64, bool) { lines++ })
			sink.lines = lines
		}
	})
}
