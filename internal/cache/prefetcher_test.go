package cache

import (
	"testing"

	"secddr/internal/config"
)

func pf(enabled bool) *StreamPrefetcher {
	return NewStreamPrefetcher(config.Prefetcher{
		Enabled: enabled, Streams: 4, Degree: 2, Dist: 4,
	})
}

func TestDisabledPrefetcherSilent(t *testing.T) {
	p := pf(false)
	for i := uint64(0); i < 10; i++ {
		if got := p.Observe(nil, i*64); got != nil {
			t.Fatal("disabled prefetcher issued prefetches")
		}
	}
}

func TestAscendingStreamDetected(t *testing.T) {
	p := pf(true)
	var out []uint64
	for i := uint64(0); i < 5; i++ {
		out = p.Observe(nil, i*64)
	}
	if len(out) != 2 {
		t.Fatalf("confirmed stream issued %d prefetches, want 2", len(out))
	}
	// At line 4 with Dist=4: prefetch lines 8 and 9.
	if out[0] != 8*64 || out[1] != 9*64 {
		t.Errorf("prefetch targets = %#x,%#x, want %#x,%#x", out[0], out[1], uint64(8*64), uint64(9*64))
	}
}

func TestDescendingStreamDetected(t *testing.T) {
	p := pf(true)
	var out []uint64
	for i := int64(100); i >= 96; i-- {
		out = p.Observe(nil, uint64(i)*64)
	}
	if len(out) == 0 {
		t.Fatal("descending stream not detected")
	}
	if out[0] >= 96*64 {
		t.Errorf("descending prefetch target %#x not below stream head", out[0])
	}
}

func TestRandomAccessesDoNotTrigger(t *testing.T) {
	p := pf(true)
	addrs := []uint64{0x0, 0x100000, 0x4000, 0x900000, 0x20000, 0x700000}
	for _, a := range addrs {
		if got := p.Observe(nil, a); len(got) != 0 {
			t.Fatalf("random access pattern issued prefetches: %v", got)
		}
	}
}

func TestSameLineRepeatIgnored(t *testing.T) {
	p := pf(true)
	p.Observe(nil, 64)
	p.Observe(nil, 128) // trains
	p.Observe(nil, 192) // confirms
	before := p.Issued
	if got := p.Observe(nil, 192); got != nil {
		t.Error("repeat of same line issued prefetches")
	}
	if p.Issued != before {
		t.Error("issued count changed on same-line repeat")
	}
}

func TestDirectionFlipRetrains(t *testing.T) {
	p := pf(true)
	for i := uint64(0); i < 4; i++ {
		p.Observe(nil, i*64)
	}
	if got := p.Observe(nil, 2*64); len(got) != 0 {
		t.Error("direction flip still issued prefetches")
	}
}

func TestMultipleConcurrentStreams(t *testing.T) {
	p := pf(true)
	baseA, baseB := uint64(0), uint64(1<<20)
	var outA, outB []uint64
	for i := uint64(0); i < 5; i++ {
		outA = p.Observe(nil, baseA+i*64)
		outB = p.Observe(nil, baseB+i*64)
	}
	if len(outA) == 0 || len(outB) == 0 {
		t.Error("interleaved streams not both detected")
	}
}

// TestObserveAppendsToCallerBuffer checks that Observe extends dst rather
// than replacing it, and that a kept buffer makes a confirmed stream's
// prefetches allocation-free.
func TestObserveAppendsToCallerBuffer(t *testing.T) {
	p := pf(true)
	for i := uint64(0); i < 4; i++ {
		p.Observe(nil, i*64)
	}
	got := p.Observe([]uint64{1}, 4*64)
	if len(got) != 3 || got[0] != 1 || got[1] != 8*64 || got[2] != 9*64 {
		t.Fatalf("Observe(dst=[1]) = %#x, want [0x1 0x200 0x240]", got)
	}
	if p.Issued != 6 {
		t.Errorf("Issued = %d, want 6 (dst's prefix is not counted)", p.Issued)
	}
	buf := make([]uint64, 0, 8)
	line := uint64(5)
	allocs := testing.AllocsPerRun(100, func() {
		buf = p.Observe(buf[:0], line*64)
		line++
	})
	if allocs != 0 {
		t.Errorf("Observe into a kept buffer allocated %.1f times per call", allocs)
	}
}
