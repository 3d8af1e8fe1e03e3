package sim

import (
	"runtime"
	"runtime/debug"
	"testing"

	"secddr/internal/config"
	"secddr/internal/cpu"
	"secddr/internal/trace"
)

// TestWarmupAllocatesOneWarmTable: a warmup shuffles its cores' warm-fill
// page tables into one buffer, so with the measured tables already in a
// shared set (a first warmup through the same set built them) a second
// warmup allocates its LLC, one warm table and little else — not one warm
// table per core.
func TestWarmupAllocatesOneWarmTable(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	opt := tinyOpt(config.ModeSecDDRCTR, "mcf")
	tables := new(trace.Tables)
	first, err := WarmupShared(opt, tables)
	if err != nil {
		t.Fatal(err)
	}
	// Per line the LLC stores a tag and an LRU stamp (8 bytes each) and a
	// dirty flag; a page table stores 4 bytes per footprint page.
	g := first.sys.llc.Geom()
	llcBytes := uint64(g.SizeBytes/g.LineBytes) * (8 + 8 + 1)
	tableBytes := opt.Workload.Footprint / 4096 * 4
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	second, err := WarmupShared(opt, tables)
	runtime.ReadMemStats(&after)
	debug.SetGCPercent(gc)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(first)
	runtime.KeepAlive(second)
	got := after.TotalAlloc - before.TotalAlloc
	limit := llcBytes + 2*tableBytes
	t.Logf("second warmup allocated %d bytes; LLC arrays %d, one page table %d", got, llcBytes, tableBytes)
	if got >= limit {
		t.Errorf("second warmup allocated %d bytes, want under %d (the LLC's arrays plus two %d-byte page tables): warm-fill tables are not sharing one buffer",
			got, limit, tableBytes)
	}
}

// TestWarmFillMatchesSource: every core's warm fill hands out exactly the
// ops of the source newCoreSource builds under the warm salt, with one
// buffer reused across cores and profiles of different footprints.
func TestWarmFillMatchesSource(t *testing.T) {
	var buf []uint32
	for _, wl := range []string{"mcf", "exchange2", "lbm"} {
		opt := tinyOpt(config.ModeSecDDRCTR, wl)
		for i := range 4 {
			src, err := opt.newCoreSource(i, warmSalt, nil)
			if err != nil {
				t.Fatal(err)
			}
			const n = 2000
			var got []cpu.Op
			buf, err = opt.warmFill(i, n, buf, func(op cpu.Op) { got = append(got, op) })
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("%s core %d: warm fill handed out %d ops, want %d", wl, i, len(got), n)
			}
			for j, op := range got {
				if want, _ := src.Next(); op != want {
					t.Fatalf("%s core %d: op %d is %+v, the warm source's is %+v", wl, i, j, op, want)
				}
			}
		}
	}
}
