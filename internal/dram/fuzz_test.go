package dram

import (
	"testing"

	"secddr/internal/config"
)

// FuzzChannelMatchesReference runs diffChannels, the channel against the
// per-bank fan-out reference, on fuzzer-chosen streams: sel picks the
// geometry (bit 0 DDR5, bits 1-2 one of 1, 2, 4 or 2 ranks), seed the
// command stream, and n a step count in [fuzzMinSteps, fuzzMinSteps +
// fuzzStepSpan). The floor keeps each stream long enough to issue every
// command kind, which diffChannels requires: REF comes one step in 50,
// so 600 steps miss it about 5 times in a million. The span keeps an
// execution short.
func FuzzChannelMatchesReference(f *testing.F) {
	const fuzzMinSteps, fuzzStepSpan = 600, 600
	for sel := byte(0); sel < 8; sel++ {
		f.Add(sel, uint64(sel)+1, uint16(sel)*97)
	}
	f.Fuzz(func(t *testing.T, sel byte, seed uint64, n uint16) {
		cfg := config.Table1(config.ModeUnprotected).DRAM
		if sel&1 != 0 {
			cfg = config.Table1DDR5(config.ModeUnprotected).DRAM
		}
		cfg.Ranks = []int{1, 2, 4, 2}[sel>>1&3]
		cfg.RefreshEnabled = true
		diffChannels(t, cfg, seed, fuzzMinSteps+int(n)%fuzzStepSpan)
	})
}
