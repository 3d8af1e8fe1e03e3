package sim

import (
	"math"
	"reflect"
	"testing"
	"unsafe"
)

// TestSystemSizeClass pins system inside Go's 1280-byte allocation size
// class. The prof and samp side structs exist to keep cold state out of
// system; growing it past this class measurably slows the measured loop
// (BenchmarkQuickScaleEventDriven).
func TestSystemSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(system{}); got > 1280 {
		t.Errorf("unsafe.Sizeof(system{}) = %d, want <= 1280 (size class)", got)
	}
}

// tallyWords views a tally as its uint64 fields, so the round-trip test
// sets every field, including ones added after it was written.
func tallyWords(t *tally) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(t)), unsafe.Sizeof(*t)/8)
}

func TestTallySubAddRoundTrip(t *testing.T) {
	typ := reflect.TypeOf(tally{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() != reflect.Uint64 {
			t.Fatalf("tally.%s is %v; tallyWords assumes every field is uint64", f.Name, f.Type)
		}
	}
	var a, b tally
	wa, wb := tallyWords(&a), tallyWords(&b)
	for i := range wa {
		// Distinct per field; b < a on odd fields exercises wraparound.
		wa[i] = uint64(1000 + 17*i)
		wb[i] = uint64(1000 + 31*i)
		if i%2 == 1 {
			wb[i] = uint64(3 * i)
		}
	}
	d := b.sub(a)
	if got := a.add(d); got != b {
		t.Errorf("a.add(b.sub(a)) = %+v, want %+v", got, b)
	}
	if got := d.add(a).sub(b); got != (tally{}) {
		t.Errorf("b.sub(a).add(a).sub(b) = %+v, want zero", got)
	}
	for i, w := range tallyWords(&d) {
		if w != wb[i]-wa[i] {
			t.Errorf("field %s: sub = %d, want %d", typ.Field(i).Name, w, wb[i]-wa[i])
		}
	}
}

func TestTallyRatios(t *testing.T) {
	ratios := func(d tally) []struct {
		name string
		f    func() (float64, bool)
	} {
		return []struct {
			name string
			f    func() (float64, bool)
		}{
			{"mpki", d.mpki},
			{"llcMissRate", d.llcMissRate},
			{"metaMissRate", d.metaMissRate},
			{"avgReadLatency", d.avgReadLatency},
			{"rowHitRate", d.rowHitRate},
			{"bandwidthGBs", func() (float64, bool) { return d.bandwidthGBs(1600) }},
		}
	}

	// Every numerator set, every denominator zero.
	for _, r := range ratios(tally{demandMiss: 5, metaMiss: 3, readLatSum: 100, busBusy: 7}) {
		if v, ok := r.f(); ok || v != 0 {
			t.Errorf("%s on a zero denominator = (%v, %v), want (0, false)", r.name, v, ok)
		}
	}

	d := tally{
		instr: 2000, demandMiss: 5, llcAccess: 10,
		metaAcc: 6, metaMiss: 3,
		readLatSum: 100, readsDone: 4,
		rowHits: 1, rowMisses: 1, rowConfl: 2,
		busBusy: 800, memCycles: 1600,
	}
	// 800 busy cycles x 16 bytes over 1600 cycles at 1600 MHz (1 us).
	want := []float64{2.5, 0.5, 0.5, 25, 0.25, 12.8}
	for i, r := range ratios(d) {
		if v, ok := r.f(); !ok || math.Abs(v-want[i]) > 1e-9 {
			t.Errorf("%s = (%v, %v), want (%v, true)", r.name, v, ok, want[i])
		}
	}
}
