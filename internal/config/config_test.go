package config

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

func TestTable1Parameters(t *testing.T) {
	cfg := Table1(ModeIntegrityTree)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Table1 config invalid: %v", err)
	}
	// Table I, row by row.
	if cfg.Core.FetchWidth != 6 || cfg.Core.ROBEntries != 224 || cfg.Core.NumCores != 4 {
		t.Errorf("core parameters mismatch: %+v", cfg.Core)
	}
	if cfg.Core.ClockMHz != 3200 {
		t.Errorf("core clock = %d, want 3200", cfg.Core.ClockMHz)
	}
	if cfg.L1D.SizeBytes != 32<<10 || cfg.L1D.Ways != 4 || cfg.L1D.LineBytes != 64 {
		t.Errorf("L1D mismatch: %+v", cfg.L1D)
	}
	if cfg.LLC.SizeBytes != 4<<20 || cfg.LLC.Ways != 16 {
		t.Errorf("LLC mismatch: %+v", cfg.LLC)
	}
	if cfg.Security.MetadataCache.SizeBytes != 128<<10 || cfg.Security.MetadataCache.Ways != 8 {
		t.Errorf("metadata cache mismatch: %+v", cfg.Security.MetadataCache)
	}
	if cfg.Security.CryptoLatency != 40 {
		t.Errorf("crypto latency = %d, want 40", cfg.Security.CryptoLatency)
	}
	d := cfg.DRAM
	if d.CapacityBytes != 16<<30 || d.Channels != 1 || d.Ranks != 2 || d.BankGroups != 4 || d.Banks != 16 {
		t.Errorf("DRAM organization mismatch: %+v", d)
	}
	if d.ReadQueueEntries != 64 || d.WriteQueueEntries != 64 {
		t.Errorf("queue sizes mismatch: %+v", d)
	}
	tm := d.Timing
	want := DRAMTiming{TCL: 22, TCCDS: 4, TCCDL: 10, TCWL: 16, TWTRS: 4, TWTRL: 12, TRP: 22, TRCD: 22, TRAS: 56}
	if tm.TCL != want.TCL || tm.TCCDS != want.TCCDS || tm.TCCDL != want.TCCDL ||
		tm.TCWL != want.TCWL || tm.TWTRS != want.TWTRS || tm.TWTRL != want.TWTRL ||
		tm.TRP != want.TRP || tm.TRCD != want.TRCD || tm.TRAS != want.TRAS {
		t.Errorf("Table I timing mismatch: got %+v", tm)
	}
	if cfg.CPUPerMem != 2 {
		t.Errorf("CPU:mem clock ratio = %d, want 2", cfg.CPUPerMem)
	}
}

func TestModeDefaults(t *testing.T) {
	tests := []struct {
		mode       Mode
		enc        EncryptionKind
		ewcrc      bool
		writeBurst int
	}{
		{ModeIntegrityTree, EncCounterMode, false, 8},
		{ModeSecDDRCTR, EncCounterMode, true, 10},
		{ModeEncryptOnlyCTR, EncCounterMode, false, 8},
		{ModeSecDDRXTS, EncXTS, true, 10},
		{ModeEncryptOnlyXTS, EncXTS, false, 8},
		{ModeInvisiMem, EncXTS, false, 8},
		{ModeUnprotected, EncNone, false, 8},
	}
	for _, tt := range tests {
		t.Run(tt.mode.String(), func(t *testing.T) {
			cfg := Table1(tt.mode)
			if cfg.Security.Encryption != tt.enc {
				t.Errorf("encryption = %v, want %v", cfg.Security.Encryption, tt.enc)
			}
			if cfg.Security.EWCRC != tt.ewcrc {
				t.Errorf("eWCRC = %v, want %v", cfg.Security.EWCRC, tt.ewcrc)
			}
			if cfg.DRAM.WriteBurstBeats != tt.writeBurst {
				t.Errorf("write burst = %d, want %d", cfg.DRAM.WriteBurstBeats, tt.writeBurst)
			}
		})
	}
}

func TestInvisiMemRealisticDerating(t *testing.T) {
	cfg := Table1(ModeInvisiMem)
	cfg.Security.InvisiMemRealistic = true
	cfg.Normalize()
	if cfg.DRAM.ClockMHz != 1200 {
		t.Fatalf("realistic InvisiMem clock = %d, want 1200", cfg.DRAM.ClockMHz)
	}
	// Nanosecond-preserving rescale: 22 cycles @1600MHz = 13.75ns -> 16.5 -> 17 cycles @1200MHz.
	if cfg.DRAM.Timing.TCL != 17 {
		t.Errorf("scaled tCL = %d, want 17", cfg.DRAM.Timing.TCL)
	}
	if cfg.DRAM.Timing.TRAS != 42 {
		t.Errorf("scaled tRAS = %d, want 42 (56*0.75)", cfg.DRAM.Timing.TRAS)
	}
	if cfg.CPUPerMem != 2 { // 3200/1200 truncates to 2; memory sim handles fractional via ns accounting
		t.Errorf("CPUPerMem = %d", cfg.CPUPerMem)
	}
}

func TestTimingScaleRoundTrip(t *testing.T) {
	tm := Table1(ModeIntegrityTree).DRAM.Timing
	same := tm.Scale(1600, 1600)
	if same != tm {
		t.Errorf("identity scale changed timing: %+v vs %+v", same, tm)
	}
}

func TestTimingScaleMonotone(t *testing.T) {
	// Scaling down the clock must never increase cycle counts.
	f := func(c uint8) bool {
		tm := DRAMTiming{TCL: int(c)}
		return tm.Scale(1600, 1200).TCL <= tm.TCL
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCacheGeomSets(t *testing.T) {
	g := CacheGeom{SizeBytes: 4 << 20, LineBytes: 64, Ways: 16}
	if g.Sets() != 4096 {
		t.Errorf("LLC sets = %d, want 4096", g.Sets())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
	bad := CacheGeom{SizeBytes: 3000, LineBytes: 64, Ways: 4}
	if err := bad.Validate(); err == nil {
		t.Error("invalid geometry accepted")
	}
	// 48-byte lines divide the size into a power-of-two set count, but the
	// cache's offset width assumes a power-of-two line.
	odd := CacheGeom{SizeBytes: 48 * 4 * 64, LineBytes: 48, Ways: 4}
	if err := odd.Validate(); err == nil || !strings.Contains(err.Error(), "not a power of two") {
		t.Errorf("48-byte lines: err = %v, want the line-size error", err)
	}
}

func TestDRAMValidateLineSize(t *testing.T) {
	for _, line := range []int{0, -64, 48, 96} {
		d := Table1(ModeUnprotected).DRAM
		d.LineBytes = line
		d.RowBytes = 8 * 48 * 64 // a multiple of every line size tried
		err := d.Validate()
		if err == nil || !strings.Contains(err.Error(), "power of two") {
			t.Errorf("%d-byte lines: err = %v, want the line-size error", line, err)
		}
	}
}

func TestDRAMValidateTimingOrder(t *testing.T) {
	presets := map[string]DRAM{
		"ddr4": Table1(ModeUnprotected).DRAM,
		"ddr5": Table1DDR5(ModeUnprotected).DRAM,
	}
	want := map[string][4]int{"ddr4": {10, 4, 12, 4}, "ddr5": {16, 8, 30, 13}}
	for name, d := range presets {
		tm := d.Timing
		if got := [4]int{tm.TCCDL, tm.TCCDS, tm.TWTRL, tm.TWTRS}; got != want[name] {
			t.Errorf("%s tCCD_L/S, tWTR_L/S = %v, want %v", name, got, want[name])
		}
		if err := d.Validate(); err != nil {
			t.Errorf("%s rejected: %v", name, err)
		}
		ccd := d
		ccd.Timing.TCCDL = ccd.Timing.TCCDS - 1
		wtr := d
		wtr.Timing.TWTRL = wtr.Timing.TWTRS - 1
		rrd := d
		rrd.Timing.TRRDL = rrd.Timing.TRRDS - 1
		for _, bad := range []DRAM{ccd, wtr, rrd} {
			if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "same-bank-group") {
				t.Errorf("%s with %+v: err = %v, want the timing-order error", name, bad.Timing, err)
			}
		}
	}
}

// TestDRAMValidateDrainWatermarks: the presets' watermarks pass, and
// watermarks that cannot make a drain end below where it starts, or queues
// with no entry, are rejected.
func TestDRAMValidateDrainWatermarks(t *testing.T) {
	for name, d := range map[string]DRAM{
		"ddr4": Table1(ModeUnprotected).DRAM,
		"ddr5": Table1DDR5(ModeUnprotected).DRAM,
	} {
		if err := d.Validate(); err != nil {
			t.Errorf("%s rejected: %v", name, err)
		}
		if high, low := d.DrainThresholds(); high != 48 || low != 16 {
			t.Errorf("%s drain thresholds = %d/%d, want 48/16", name, high, low)
		}
	}
	const marks, queues = "watermarks", "queues need"
	cases := map[string]struct {
		mutate func(d *DRAM)
		want   string
	}{
		"high below low": {func(d *DRAM) { d.WriteDrainHigh, d.WriteDrainLow = 0.25, 0.5 }, marks},
		"equal":          {func(d *DRAM) { d.WriteDrainHigh, d.WriteDrainLow = 0.5, 0.5 }, marks},
		"high above 1":   {func(d *DRAM) { d.WriteDrainHigh = 1.5 }, marks},
		"low below 0":    {func(d *DRAM) { d.WriteDrainLow = -0.25 }, marks},
		"no read entry":  {func(d *DRAM) { d.ReadQueueEntries = 0 }, queues},
		"no write entry": {func(d *DRAM) { d.WriteQueueEntries = 0 }, queues},
	}
	for name, c := range cases {
		d := Table1(ModeUnprotected).DRAM
		c.mutate(&d)
		if err := d.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want an error naming %q", name, err, c.want)
		}
	}
}

func TestDRAMGeometry(t *testing.T) {
	d := Table1(ModeIntegrityTree).DRAM
	if d.BanksPerGroup() != 4 {
		t.Errorf("banks per group = %d, want 4", d.BanksPerGroup())
	}
	// 16GB / 1ch / 2 ranks / 16 banks / 8KB rows = 65536 rows.
	if d.Rows() != 65536 {
		t.Errorf("rows per bank = %d, want 65536", d.Rows())
	}
}

func TestModeStringRoundTrip(t *testing.T) {
	for m := ModeIntegrityTree; m <= ModeUnprotected; m++ {
		got, err := ParseMode(m.String())
		if err != nil {
			t.Fatalf("ParseMode(%q): %v", m.String(), err)
		}
		if got != m {
			t.Errorf("round trip %v -> %v", m, got)
		}
	}
	if _, err := ParseMode("nonsense"); err == nil {
		t.Error("ParseMode accepted garbage")
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	cfg := Table1(ModeIntegrityTree)
	cfg.Security.TreeArity = 1
	if err := cfg.Validate(); err == nil {
		t.Error("arity-1 tree accepted")
	}
	cfg = Table1(ModeSecDDRCTR)
	cfg.Security.CountersPerLine = 0
	if err := cfg.Validate(); err == nil {
		t.Error("counter-mode with zero counters per line accepted")
	}
	cfg = Table1(ModeSecDDRCTR)
	cfg.Security.Mode = 0
	if err := cfg.Validate(); err == nil {
		t.Error("unset mode accepted")
	}
}

func TestValidateRejectsTooManyRanks(t *testing.T) {
	d := Table1(ModeUnprotected).DRAM
	d.Ranks = maxRanks
	if err := d.Validate(); err != nil {
		t.Fatalf("%d ranks rejected: %v", maxRanks, err)
	}
	d.Ranks = maxRanks + 1
	err := d.Validate()
	if err == nil || !strings.Contains(err.Error(), "exceeds the maximum of 64") {
		t.Fatalf("%d ranks: err = %v, want the rank-limit error", d.Ranks, err)
	}
}

func TestDDR5Preset(t *testing.T) {
	cfg := Table1DDR5(ModeSecDDRXTS)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("DDR5 config invalid: %v", err)
	}
	if cfg.DRAM.ClockMHz != 3200 {
		t.Errorf("DDR5 clock = %d, want 3200", cfg.DRAM.ClockMHz)
	}
	if cfg.DRAM.ReadBurstBeats != 16 || cfg.DRAM.WriteBurstBeats != 18 {
		t.Errorf("DDR5 bursts = %d/%d, want 16/18 (eWCRC)", cfg.DRAM.ReadBurstBeats, cfg.DRAM.WriteBurstBeats)
	}
	if cfg.DRAM.BankGroups != 8 || cfg.DRAM.Banks != 32 {
		t.Errorf("DDR5 organization = %d groups / %d banks", cfg.DRAM.BankGroups, cfg.DRAM.Banks)
	}
	if cfg.CPUPerMem != 1 {
		t.Errorf("DDR5 clock ratio = %d, want 1", cfg.CPUPerMem)
	}
	// Without eWCRC the write burst matches the read burst.
	enc := Table1DDR5(ModeEncryptOnlyXTS)
	if enc.DRAM.WriteBurstBeats != 16 {
		t.Errorf("DDR5 encrypt-only write burst = %d, want 16", enc.DRAM.WriteBurstBeats)
	}
}

func TestDDR5RelativeBurstStretchSmaller(t *testing.T) {
	// The paper's observation: +2 beats is relatively cheaper on DDR5.
	d4 := Table1(ModeSecDDRXTS).DRAM
	d5 := Table1DDR5(ModeSecDDRXTS).DRAM
	s4 := float64(d4.WriteBurstBeats) / float64(d4.ReadBurstBeats)
	s5 := float64(d5.WriteBurstBeats) / float64(d5.ReadBurstBeats)
	if s5 >= s4 {
		t.Errorf("DDR5 burst stretch %.3f not smaller than DDR4 %.3f", s5, s4)
	}
}

func TestModeJSONRoundTrip(t *testing.T) {
	for m := ModeIntegrityTree; m <= ModeUnprotected; m++ {
		raw, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if string(raw) != `"`+m.String()+`"` {
			t.Errorf("%v marshals to %s, want canonical name", m, raw)
		}
		var back Mode
		if err := json.Unmarshal(raw, &back); err != nil || back != m {
			t.Errorf("%v round-trips to %v (%v)", m, back, err)
		}
	}
	if _, err := json.Marshal(Mode(99)); err == nil {
		t.Error("unknown mode marshalled without error")
	}
	var m Mode
	if err := json.Unmarshal([]byte(`3`), &m); err == nil {
		t.Error("numeric mode accepted")
	}
}
