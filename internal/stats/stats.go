// Package stats holds the value-level statistics the other layers share:
// the power-of-two histogram behind the sweep server's wall-clock latency
// families, the online mean and 95% confidence-interval estimator behind
// sampled fidelity, and the geometric mean the paper's figures report. It
// keeps no named counters: each layer counts in its own record (a
// simulator Result's Profile is a plain map, and the sweep server's
// counters and histograms share one metrics record).
package stats

import "math"

// Histogram is a power-of-two bucketed latency histogram. Bucket i counts
// observations v with 2^(i-1) < v <= 2^i (bucket 0 counts v <= 1). The
// zero value is an empty histogram, ready for use.
type Histogram struct {
	buckets [64]uint64
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.buckets[bucketOf(v)]++
}

func bucketOf(v uint64) int {
	b := 0
	for v > 1 {
		v >>= 1
		b++
	}
	return b
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum }

// NumBuckets is the number of power-of-two buckets in a Histogram.
const NumBuckets = 64

// BucketCounts returns the per-bucket (non-cumulative) observation counts.
// Bucket i covers 2^(i-1) < v <= 2^i; see BucketUpper.
func (h *Histogram) BucketCounts() [NumBuckets]uint64 { return h.buckets }

// BucketUpper returns bucket i's inclusive upper bound, 2^i.
func BucketUpper(i int) uint64 { return uint64(1) << uint(i) }

// Mean returns the arithmetic mean, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest observation (0 if empty).
func (h *Histogram) Min() uint64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation.
func (h *Histogram) Max() uint64 { return h.max }

// Percentile returns an upper bound for the p-th percentile (0 < p <= 100)
// at bucket granularity.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(p / 100 * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			return uint64(1) << uint(i)
		}
	}
	return h.max
}

// Merge adds all observations from other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// GeoMean returns the geometric mean of xs, ignoring non-positive entries.
// It is used for the "gmean" bars in the paper's figures.
func GeoMean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		sum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
