package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// TestHistogramMergeIntoEmpty: merging into a fresh histogram adopts the
// other's observations, bounds included (a fresh histogram's min is a
// sentinel, not zero).
func TestHistogramMergeIntoEmpty(t *testing.T) {
	h, other := NewHistogram(), NewHistogram()
	other.Observe(8)
	other.Observe(3)
	h.Merge(other)
	if h.Count() != 2 || h.Sum() != 11 || h.Min() != 3 || h.Max() != 8 {
		t.Errorf("merged into empty: count=%d sum=%d min=%d max=%d, want 2 11 3 8", h.Count(), h.Sum(), h.Min(), h.Max())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for _, v := range []uint64{1, 2, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Errorf("min/max = %d/%d", h.Min(), h.Max())
	}
	if got, want := h.Mean(), 26.5; got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram()
	for i := uint64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	p50 := h.Percentile(50)
	if p50 < 256 || p50 > 1024 {
		t.Errorf("p50 = %d out of plausible bucket range", p50)
	}
	if h.Percentile(100) < h.Percentile(50) {
		t.Error("percentiles not monotone")
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Percentile(99) != 0 {
		t.Error("empty histogram returned nonzero summary")
	}
}

func TestBucketOf(t *testing.T) {
	tests := []struct {
		v    uint64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {1024, 10}, {1025, 10}}
	for _, tt := range tests {
		if got := bucketOf(tt.v); got != tt.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tt.v, got, tt.want)
		}
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	h := NewHistogram()
	h.Observe(37)
	if h.Min() != 37 || h.Max() != 37 {
		t.Errorf("single-observation min/max = %d/%d, want 37/37", h.Min(), h.Max())
	}
	if h.Mean() != 37 {
		t.Errorf("single-observation mean = %v, want 37", h.Mean())
	}
	// Every percentile of a one-point distribution lands in 37's bucket
	// (bucketOf is floor(log2), so 37 is in bucket 5), and Percentile
	// reports that bucket's 1<<i bound.
	for _, p := range []float64{1, 50, 99, 100} {
		if got := h.Percentile(p); got != 32 {
			t.Errorf("p%.0f = %d, want bucket bound 32", p, got)
		}
	}
}

func TestHistogramMergeDisjointRanges(t *testing.T) {
	lo, hi := NewHistogram(), NewHistogram()
	for v := uint64(1); v <= 8; v++ {
		lo.Observe(v)
	}
	for v := uint64(1 << 20); v < 1<<20+8; v++ {
		hi.Observe(v)
	}
	lo.Merge(hi)
	if lo.Count() != 16 {
		t.Fatalf("merged count = %d, want 16", lo.Count())
	}
	if lo.Min() != 1 || lo.Max() != 1<<20+7 {
		t.Errorf("merged min/max = %d/%d, want 1/%d", lo.Min(), lo.Max(), 1<<20+7)
	}
	// The two bucket ranges must not bleed into each other.
	b := lo.BucketCounts()
	for i := 4; i < 20; i++ {
		if b[i] != 0 {
			t.Errorf("bucket %d = %d, want 0 (gap between disjoint ranges)", i, b[i])
		}
	}
	if got := lo.Percentile(50); got > 8 {
		t.Errorf("merged p50 = %d, should stay in the low range", got)
	}
	if got := lo.Percentile(99); got < 1<<20 {
		t.Errorf("merged p99 = %d, should land in the high range", got)
	}

	// Merging an empty histogram must not clobber min (empty min is the
	// MaxUint64 sentinel) or anything else.
	before := *lo
	lo.Merge(NewHistogram())
	if *lo != before {
		t.Error("merging an empty histogram changed state")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean(1,4) = %v, want 2", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", got)
	}
	// Non-positive entries are ignored.
	if got := GeoMean([]float64{0, -1, 8}); math.Abs(got-8) > 1e-12 {
		t.Errorf("GeoMean with ignored entries = %v, want 8", got)
	}
}

func TestGeoMeanProperty(t *testing.T) {
	// GeoMean of a constant slice is the constant.
	f := func(k uint8, n uint8) bool {
		c := float64(k%100) + 1
		xs := make([]float64, n%16+1)
		for i := range xs {
			xs[i] = c
		}
		return math.Abs(GeoMean(xs)-c) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramMergeProperty(t *testing.T) {
	// Merging two histograms preserves total count and sum-derived mean.
	f := func(a, b []uint16) bool {
		h1, h2 := NewHistogram(), NewHistogram()
		var sum, n uint64
		for _, v := range a {
			h1.Observe(uint64(v))
			sum += uint64(v)
			n++
		}
		for _, v := range b {
			h2.Observe(uint64(v))
			sum += uint64(v)
			n++
		}
		h1.Merge(h2)
		if h1.Count() != n {
			return false
		}
		if n == 0 {
			return h1.Mean() == 0
		}
		return math.Abs(h1.Mean()-float64(sum)/float64(n)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
