// Package config defines the simulation configuration space for the SecDDR
// reproduction. The canonical preset, Table1, mirrors Table I of the paper
// (DSN 2023): a 4-core 3.2GHz out-of-order system attached to a single
// channel of DDR4-3200 with two ranks.
package config

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Mode identifies the memory-protection configuration under evaluation.
// These correspond to the systems compared in Section IV-B of the paper.
type Mode int

const (
	// ModeIntegrityTree is the secure baseline: counter-mode encryption with
	// an integrity tree over the encryption counters (Intel-SGX style). The
	// arity is configurable (8-ary hash tree, 64-ary baseline, 128-ary
	// MorphTree-like).
	ModeIntegrityTree Mode = iota + 1
	// ModeSecDDRCTR is SecDDR with counter-mode encryption: E-MACs protect
	// the bus, encryption counters are fetched through the metadata cache,
	// and writes carry an encrypted eWCRC (burst length 10).
	ModeSecDDRCTR
	// ModeEncryptOnlyCTR is the counter-mode encrypt-only upper bound that
	// assumes integrity rather than enforcing it.
	ModeEncryptOnlyCTR
	// ModeSecDDRXTS is SecDDR with AES-XTS encryption: no counter storage,
	// flat encryption latency on every access, eWCRC on writes.
	ModeSecDDRXTS
	// ModeEncryptOnlyXTS is the AES-XTS encrypt-only upper bound.
	ModeEncryptOnlyXTS
	// ModeInvisiMem is an authenticated-channel design based on InvisiMem
	// (ISCA'17) adapted to a trusted DIMM: per-transaction MACs verified on
	// both ends, adding 2x MAC latency to the access critical path.
	ModeInvisiMem
	// ModeUnprotected disables all security machinery (sanity/ablation).
	ModeUnprotected
)

var _modeNames = map[Mode]string{
	ModeIntegrityTree:  "integrity-tree",
	ModeSecDDRCTR:      "secddr+ctr",
	ModeEncryptOnlyCTR: "encrypt-only-ctr",
	ModeSecDDRXTS:      "secddr+xts",
	ModeEncryptOnlyXTS: "encrypt-only-xts",
	ModeInvisiMem:      "invisimem",
	ModeUnprotected:    "unprotected",
}

// String returns the mode's canonical name as used in figure output.
func (m Mode) String() string {
	if s, ok := _modeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode converts a canonical mode name back to a Mode.
func ParseMode(s string) (Mode, error) {
	for m, name := range _modeNames {
		if name == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("config: unknown mode %q", s)
}

// MarshalJSON encodes the mode by its canonical name, so machine-readable
// results don't expose the internal enum ordering.
func (m Mode) MarshalJSON() ([]byte, error) {
	if _, ok := _modeNames[m]; !ok {
		return nil, fmt.Errorf("config: cannot encode unknown mode %d", int(m))
	}
	return json.Marshal(m.String())
}

// UnmarshalJSON decodes a canonical mode name.
func (m *Mode) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := ParseMode(s)
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// EncryptionKind selects the data-confidentiality scheme.
type EncryptionKind int

const (
	// EncCounterMode is SGX-style counter-mode encryption: OTPs derived from
	// per-line encryption counters stored in memory and cached on chip.
	EncCounterMode EncryptionKind = iota + 1
	// EncXTS is AES-XTS (TME/SEV style): no counters, but the full AES
	// latency lands on every memory access.
	EncXTS
	// EncNone disables encryption modelling.
	EncNone
)

// String returns a short human-readable name.
func (e EncryptionKind) String() string {
	switch e {
	case EncCounterMode:
		return "ctr"
	case EncXTS:
		return "xts"
	case EncNone:
		return "none"
	default:
		return fmt.Sprintf("EncryptionKind(%d)", int(e))
	}
}

// Core holds the out-of-order core parameters (Table I, "Core" row).
type Core struct {
	FetchWidth  int // instructions fetched/renamed per cycle
	RetireWidth int // instructions retired per cycle
	ROBEntries  int // reorder-buffer capacity
	ClockMHz    int // core clock in MHz
	NumCores    int
}

// CacheGeom describes one set-associative cache.
type CacheGeom struct {
	SizeBytes  int
	LineBytes  int
	Ways       int
	HitLatency int // cycles, in the clock domain of the owner
}

// Sets returns the number of sets implied by the geometry.
func (c CacheGeom) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

// Validate checks that the geometry is internally consistent.
func (c CacheGeom) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return errors.New("config: cache dimensions must be positive")
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("config: cache line size %d not a power of two", c.LineBytes)
	}
	if c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("config: cache size %d not divisible by way*line %d",
			c.SizeBytes, c.LineBytes*c.Ways)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("config: cache set count %d not a power of two", s)
	}
	return nil
}

// DRAMTiming holds DDR4 timing parameters in memory-clock cycles
// (Table I, "Memory Timings" row, DDR4-3200 at 1600MHz).
type DRAMTiming struct {
	TCL   int // CAS latency: RD command to first data beat
	TCCDS int // column-to-column, different bank group
	TCCDL int // column-to-column, same bank group
	TCWL  int // CAS write latency: WR command to first data beat
	TWTRS int // write-to-read turnaround, different bank group
	TWTRL int // write-to-read turnaround, same bank group
	TRP   int // precharge to activate, same bank
	TRCD  int // activate to column command, same bank
	TRAS  int // activate to precharge, same bank

	// Parameters below are not listed in Table I; JEDEC DDR4-3200 values.
	TRTP  int // read to precharge
	TWR   int // write recovery (end of write data to precharge)
	TRRDS int // activate-to-activate, different bank group
	TRRDL int // activate-to-activate, same bank group
	TFAW  int // four-activate window
	TREFI int // refresh interval
	TRFC  int // refresh cycle time
	TRTRS int // rank-to-rank switch penalty (data bus)
}

// Scale returns the timing set rescaled from clockMHz to newClockMHz,
// preserving the underlying nanosecond values (cycles are rounded up). This
// is how the InvisiMem-realistic configuration at 2400MT/s (1200MHz) is
// derived from the DDR4-3200 numbers.
func (t DRAMTiming) Scale(clockMHz, newClockMHz int) DRAMTiming {
	sc := func(c int) int {
		if c == 0 {
			return 0
		}
		// ceil(c * new / old)
		return (c*newClockMHz + clockMHz - 1) / clockMHz
	}
	return DRAMTiming{
		TCL: sc(t.TCL), TCCDS: sc(t.TCCDS), TCCDL: sc(t.TCCDL),
		TCWL: sc(t.TCWL), TWTRS: sc(t.TWTRS), TWTRL: sc(t.TWTRL),
		TRP: sc(t.TRP), TRCD: sc(t.TRCD), TRAS: sc(t.TRAS),
		TRTP: sc(t.TRTP), TWR: sc(t.TWR), TRRDS: sc(t.TRRDS),
		TRRDL: sc(t.TRRDL), TFAW: sc(t.TFAW), TREFI: sc(t.TREFI),
		TRFC: sc(t.TRFC), TRTRS: sc(t.TRTRS),
	}
}

// DRAM describes the memory organization (Table I, "Main Memory" row).
type DRAM struct {
	CapacityBytes int64
	Channels      int
	Ranks         int // per channel
	BankGroups    int // per rank
	Banks         int // per rank (total across bank groups)
	RowBytes      int // row-buffer size per bank
	LineBytes     int
	ClockMHz      int // memory clock (data rate = 2x)
	Timing        DRAMTiming

	ReadQueueEntries  int
	WriteQueueEntries int
	// Write-drain watermarks (fractions of the write queue) controlling when
	// the controller switches between read and write bursts.
	WriteDrainHigh float64
	WriteDrainLow  float64

	ReadBurstBeats  int // data beats per read burst (8 for BL8)
	WriteBurstBeats int // data beats per write burst (8, or 10 with eWCRC)

	RefreshEnabled bool
}

// maxRanks is the most ranks per channel a DRAM configuration may have:
// the memory controller tracks refresh-blocked ranks in a 64-bit mask.
const maxRanks = 64

// BanksPerGroup returns the number of banks in each bank group.
func (d DRAM) BanksPerGroup() int { return d.Banks / d.BankGroups }

// DrainThresholds returns the write-drain watermarks in write-queue
// entries: a drain starts once the queue holds high writes and ends once it
// holds low or fewer. Validate requires 0 <= low < high <= WriteQueueEntries.
func (d DRAM) DrainThresholds() (high, low int) {
	n := float64(d.WriteQueueEntries)
	return int(n * d.WriteDrainHigh), int(n * d.WriteDrainLow)
}

// Rows returns the number of rows per bank implied by the capacity.
func (d DRAM) Rows() int64 {
	perBank := d.CapacityBytes / int64(d.Channels) / int64(d.Ranks) / int64(d.Banks)
	return perBank / int64(d.RowBytes)
}

// Validate checks the organization for internal consistency.
func (d DRAM) Validate() error {
	high, low := d.DrainThresholds()
	switch {
	case d.CapacityBytes <= 0:
		return errors.New("config: DRAM capacity must be positive")
	case d.Channels <= 0 || d.Ranks <= 0 || d.Banks <= 0 || d.BankGroups <= 0:
		return errors.New("config: DRAM organization fields must be positive")
	case d.Ranks > maxRanks:
		return fmt.Errorf("config: %d ranks per channel exceeds the maximum of %d", d.Ranks, maxRanks)
	case d.Banks%d.BankGroups != 0:
		return fmt.Errorf("config: %d banks not divisible by %d bank groups", d.Banks, d.BankGroups)
	case d.LineBytes <= 0 || d.LineBytes&(d.LineBytes-1) != 0:
		// The controller masks addresses to lines with LineBytes-1.
		return fmt.Errorf("config: line size %d must be a positive power of two", d.LineBytes)
	case d.RowBytes <= 0 || d.RowBytes%d.LineBytes != 0:
		return fmt.Errorf("config: row size %d must be a positive multiple of line size %d", d.RowBytes, d.LineBytes)
	case d.Rows() <= 0:
		return errors.New("config: capacity too small for organization")
	case d.Timing.TCCDL < d.Timing.TCCDS || d.Timing.TWTRL < d.Timing.TWTRS || d.Timing.TRRDL < d.Timing.TRRDS:
		// The channel's shared horizons rely on the same-group spacing
		// never being the shorter one.
		return fmt.Errorf("config: same-bank-group timing below different-group timing (tCCD_L %d, tCCD_S %d, tWTR_L %d, tWTR_S %d, tRRD_L %d, tRRD_S %d)",
			d.Timing.TCCDL, d.Timing.TCCDS, d.Timing.TWTRL, d.Timing.TWTRS, d.Timing.TRRDL, d.Timing.TRRDS)
	case d.ReadQueueEntries < 1 || d.WriteQueueEntries < 1:
		return fmt.Errorf("config: read and write queues need at least one entry (%d, %d)",
			d.ReadQueueEntries, d.WriteQueueEntries)
	case low < 0 || low >= high || high > d.WriteQueueEntries:
		// A drain must end below where it starts: with high <= low the
		// controller would start and end one every cycle.
		return fmt.Errorf("config: write-drain watermarks %v/%v are %d/%d of %d entries, want 0 <= low < high <= entries",
			d.WriteDrainHigh, d.WriteDrainLow, high, low, d.WriteQueueEntries)
	}
	return nil
}

// Security holds the parameters of the protection machinery.
type Security struct {
	Mode       Mode
	Encryption EncryptionKind

	// CryptoLatency is the latency (CPU cycles) of one encryption or MAC
	// operation (Table I: "40 processor-cycles encryption and MAC").
	CryptoLatency int

	// TreeArity is the fan-out of the integrity tree (64 in the baseline;
	// 8 models a hash-based Merkle tree, 128 models MorphTree).
	TreeArity int
	// CountersPerLine is the split-counter packing: how many encryption
	// counters share one 64B metadata line (Fig. 8: 8, 64, or 128).
	CountersPerLine int
	// HashTree marks the tree as a MAC-over-MAC Merkle tree (8-ary design):
	// leaves are MACs in data-adjacent storage rather than counters, so MACs
	// no longer ride the ECC pins for free.
	HashTree bool

	// MetadataCache holds encryption counters and tree nodes
	// (Table I: shared 128KB, 64B line, 8-way).
	MetadataCache CacheGeom

	// EWCRC enables the encrypted extended write CRC: stretches write bursts
	// by two beats and adds OTPw generation after the write command.
	EWCRC bool
	// EWCRCBits is the CRC width per device transaction (16 for x8 DDR4).
	EWCRCBits int

	// InvisiMemRealistic derates the memory clock to model the centralized
	// data buffer (2400MT/s instead of 3200MT/s).
	InvisiMemRealistic bool
	// InvisiMemClockMHz is the derated memory clock for the realistic case.
	InvisiMemClockMHz int
}

// Config is a complete simulation configuration.
type Config struct {
	Core      Core
	L1D       CacheGeom
	LLC       CacheGeom
	Prefetch  Prefetcher
	DRAM      DRAM
	Security  Security
	CPUPerMem int // CPU cycles per memory cycle (derived; see Normalize)
}

// Prefetcher configures the LLC stream prefetcher.
type Prefetcher struct {
	Enabled bool
	Streams int // tracked streams
	Degree  int // prefetches issued per trigger
	Dist    int // prefetch distance in lines
}

// Table1 returns the paper's Table I configuration with the given
// protection mode. The caller may further tweak the returned value.
func Table1(mode Mode) Config {
	cfg := Config{
		Core: Core{
			FetchWidth:  6,
			RetireWidth: 6,
			ROBEntries:  224,
			ClockMHz:    3200,
			NumCores:    4,
		},
		L1D: CacheGeom{SizeBytes: 32 << 10, LineBytes: 64, Ways: 4, HitLatency: 4},
		LLC: CacheGeom{SizeBytes: 4 << 20, LineBytes: 64, Ways: 16, HitLatency: 30},
		Prefetch: Prefetcher{
			Enabled: true,
			Streams: 16,
			Degree:  2,
			Dist:    4,
		},
		DRAM: DRAM{
			CapacityBytes: 16 << 30,
			Channels:      1,
			Ranks:         2,
			BankGroups:    4,
			Banks:         16,
			RowBytes:      8 << 10,
			LineBytes:     64,
			ClockMHz:      1600,
			Timing: DRAMTiming{
				TCL: 22, TCCDS: 4, TCCDL: 10, TCWL: 16,
				TWTRS: 4, TWTRL: 12, TRP: 22, TRCD: 22, TRAS: 56,
				// JEDEC DDR4-3200 values for parameters beyond Table I.
				TRTP: 12, TWR: 24, TRRDS: 4, TRRDL: 8, TFAW: 34,
				TREFI: 12480, TRFC: 560, TRTRS: 2,
			},
			ReadQueueEntries:  64,
			WriteQueueEntries: 64,
			WriteDrainHigh:    0.75,
			WriteDrainLow:     0.25,
			ReadBurstBeats:    8,
			WriteBurstBeats:   8,
			RefreshEnabled:    true,
		},
		Security: Security{
			Mode:            mode,
			CryptoLatency:   40,
			TreeArity:       64,
			CountersPerLine: 64,
			MetadataCache:   CacheGeom{SizeBytes: 128 << 10, LineBytes: 64, Ways: 8, HitLatency: 2},
			EWCRCBits:       16,
		},
	}
	applyMode(&cfg)
	cfg.Normalize()
	return cfg
}

// applyMode sets the mode-dependent defaults.
func applyMode(cfg *Config) {
	sec := &cfg.Security
	switch sec.Mode {
	case ModeIntegrityTree:
		sec.Encryption = EncCounterMode
	case ModeSecDDRCTR:
		sec.Encryption = EncCounterMode
		sec.EWCRC = true
	case ModeEncryptOnlyCTR:
		sec.Encryption = EncCounterMode
	case ModeSecDDRXTS:
		sec.Encryption = EncXTS
		sec.EWCRC = true
	case ModeEncryptOnlyXTS:
		sec.Encryption = EncXTS
	case ModeInvisiMem:
		sec.Encryption = EncXTS
		sec.InvisiMemClockMHz = 1200
	case ModeUnprotected:
		sec.Encryption = EncNone
	}
	if sec.EWCRC {
		cfg.DRAM.WriteBurstBeats = 10
	}
}

// Normalize derives dependent fields (clock ratio, InvisiMem derating,
// eWCRC burst stretch) and must be called after manual field edits.
func (c *Config) Normalize() {
	if c.Security.EWCRC {
		c.DRAM.WriteBurstBeats = c.DRAM.ReadBurstBeats + 2
	} else {
		c.DRAM.WriteBurstBeats = c.DRAM.ReadBurstBeats
	}
	if c.Security.Mode == ModeInvisiMem && c.Security.InvisiMemRealistic {
		newClock := c.Security.InvisiMemClockMHz
		if newClock <= 0 {
			newClock = 1200
		}
		if c.DRAM.ClockMHz != newClock {
			c.DRAM.Timing = c.DRAM.Timing.Scale(c.DRAM.ClockMHz, newClock)
			c.DRAM.ClockMHz = newClock
		}
	}
	c.CPUPerMem = c.Core.ClockMHz / c.DRAM.ClockMHz
	if c.CPUPerMem < 1 {
		c.CPUPerMem = 1
	}
}

// Validate checks the full configuration.
func (c *Config) Validate() error {
	if err := c.L1D.Validate(); err != nil {
		return fmt.Errorf("L1D: %w", err)
	}
	if err := c.LLC.Validate(); err != nil {
		return fmt.Errorf("LLC: %w", err)
	}
	if err := c.Security.MetadataCache.Validate(); err != nil {
		return fmt.Errorf("metadata cache: %w", err)
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if c.Core.NumCores <= 0 || c.Core.ROBEntries <= 0 || c.Core.FetchWidth <= 0 {
		return errors.New("config: core parameters must be positive")
	}
	if c.Security.Mode == 0 {
		return errors.New("config: security mode not set")
	}
	if c.Security.Encryption == EncCounterMode && c.Security.CountersPerLine <= 0 {
		return errors.New("config: counter-mode requires CountersPerLine > 0")
	}
	if c.Security.Mode == ModeIntegrityTree && c.Security.TreeArity < 2 {
		return errors.New("config: integrity tree requires arity >= 2")
	}
	return nil
}
