package secmem

import (
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"secddr/internal/cache"
	"secddr/internal/config"
)

// residentLLC returns the Table I LLC filled from a seeded stream of runs
// of sequential lines in random pages of a 1 GiB footprint, so many
// resident lines share a counter leaf.
func residentLLC(t testing.TB, seed uint64) *cache.Cache {
	t.Helper()
	geom := config.Table1(config.ModeUnprotected).LLC
	llc, err := cache.New(geom)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 28))
	for range 2 * geom.SizeBytes / geom.LineBytes / 16 {
		page := rng.Uint64N(1<<30>>12) << 12
		for l := range uint64(16) {
			llc.Fill(page+(l+uint64(rng.IntN(4)))*64, false)
		}
	}
	return llc
}

// TestPrimeBorrowsClearedBitmap: a priming pass returns its leaf bitmap
// with its marks set, so the next pass to borrow it must see it cleared.
// Engine B primed after engine A gave its bitmap back — A having primed
// the same LLC, so every one of B's leaf groups is marked in it — must
// end with the same metadata cache as B primed from an empty pool.
func TestPrimeBorrowsClearedBitmap(t *testing.T) {
	llc := residentLLC(t, 1)
	for _, mode := range []config.Mode{config.ModeSecDDRCTR, config.ModeIntegrityTree} {
		t.Run(mode.String(), func(t *testing.T) {
			pool := new(sync.Pool)
			newEngine(t, mode, nil).primeResident(llc, pool)
			b := newEngine(t, mode, nil)
			b.primeResident(llc, pool)
			want := newEngine(t, mode, nil)
			want.primeResident(llc, new(sync.Pool))
			if countResident(want.metaCache) == 0 {
				t.Fatal("priming installed nothing; the test exercises nothing")
			}
			if !reflect.DeepEqual(b.metaCache, want.metaCache) {
				t.Errorf("priming with a recycled bitmap left %d resident metadata lines, want %d",
					countResident(b.metaCache), countResident(want.metaCache))
			}
		})
	}
}

func countResident(c *cache.Cache) int {
	n := 0
	c.VisitResident(func(uint64, bool) { n++ })
	return n
}
