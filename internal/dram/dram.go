// Package dram implements a cycle-level DDR4 channel model: per-bank state
// machines, a full JEDEC timing-constraint engine (tRCD/tRP/tRAS/tCCD_S/L/
// tWTR_S/L/tWR/tRTP/tRRD_S/L/tFAW/tREFI/tRFC), a shared data bus with
// variable burst length (BL8 reads; BL10 writes when SecDDR's eWCRC is
// enabled), bank groups, multiple ranks with rank-to-rank turnaround, and
// all-bank refresh.
//
// The model is command-accurate in the style of Ramulator: a memory
// controller decides which command to issue each memory-clock cycle; the
// channel tracks legality and earliest-issue times and reports data
// completion cycles.
package dram

import (
	"fmt"
	"strings"

	"secddr/internal/config"
)

// Command is a DDR command type.
type Command int

// DDR commands modelled by the channel.
const (
	CmdACT Command = iota + 1 // activate (open) a row
	CmdPRE                    // precharge (close) a bank
	CmdRD                     // column read
	CmdWR                     // column write
	CmdREF                    // all-bank refresh (per rank)
)

// String returns the JEDEC-style mnemonic.
func (c Command) String() string {
	switch c {
	case CmdACT:
		return "ACT"
	case CmdPRE:
		return "PRE"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	case CmdREF:
		return "REF"
	default:
		return fmt.Sprintf("Command(%d)", int(c))
	}
}

// Loc addresses a DRAM location at command granularity.
type Loc struct {
	Rank      int
	BankGroup int
	Bank      int // bank index within the bank group
	Row       uint32
	Col       uint32 // column in units of cache lines
}

// bankState tracks one bank's open row and earliest-issue cycles. nextRD
// and nextWR hold only the bank's own constraint (tRCD after ACT); the
// column-to-column and bus-turnaround constraints every column command
// places on other banks live in the shared horizons of Channel, rankState
// and groupState.
type bankState struct {
	openRow int64 // -1 when closed
	nextACT int64
	nextPRE int64
	nextRD  int64
	nextWR  int64
	rank    int32 // owning rank, fixed at construction
	group   int32 // channel-wide bank group index (rank*BankGroups + bankGroup)
}

// rankState tracks rank-wide constraints (tFAW, tRRD_S, refresh, tWTR_S).
type rankState struct {
	actWindow [4]int64 // cycle times of the last four ACTs (tFAW)
	actIdx    int
	nextREF   int64 // next refresh deadline
	refBusy   int64 // rank unusable until this cycle due to refresh
	wtr       int64 // earliest RD after this rank's last write (tWTR_S)
	act       int64 // earliest ACT to another bank after the rank's last ACT (tRRD_S)
	actBank   int32 // channel-wide index of the bank that last ACT opened
}

// groupState holds one bank group's horizons: the earliest RD or WR after
// the group's last column command (tCCD_L), the earliest RD after its last
// write (tWTR_L), and the earliest ACT to another of its banks after its
// last ACT (tRRD_L), which opened bank actBank.
type groupState struct {
	col     int64
	wtr     int64
	act     int64
	actBank int32
}

// Channel is one DDR channel: ranks sharing a command bus and a data bus.
type Channel struct {
	cfg  config.DRAM
	t    config.DRAMTiming
	rank []rankState
	// banks holds every bank of the channel in one array, indexed by
	// BankIndex: rank*Banks + bankGroup*banksPerGroup + bank. A rank's
	// banks are the contiguous sub-slice rankBanks(r), and within it a bank
	// group's banks are contiguous too.
	banks []bankState
	// groups holds every bank group of the channel, indexed by
	// bankState.group.
	groups []groupState

	// Shared horizons, absolute cycles: a column command or an ACT raises
	// the horizon of every bank at once, so Issue updates one value instead
	// of one per bank. EarliestIssueAt takes the maximum of the channel-wide,
	// rank-wide and group-wide terms, which is each bank's exact constraint
	// because tCCD_L >= tCCD_S, tWTR_L >= tWTR_S and tRRD_L >= tRRD_S
	// (config.DRAM.Validate): the wider term never exceeds what a bank's
	// own group imposes.
	colAny    int64 // earliest RD or WR after the last column command (tCCD_S)
	wrAfterRD int64 // earliest WR after the last read burst (read-to-write turnaround)

	banksPerGroup int
	readBL        int64 // data-bus beats/2 (memory-clock cycles) per read burst
	writeBL       int64

	dataBusFreeAt int64
	lastBurstRank int
	lastCmdCycle  int64 // command bus: one command per cycle

	// Checks counts timing checks: evaluations of a command's issue
	// horizon at one bank (EarliestIssueAt, EarliestIssueOwn). A work
	// counter for the host cost of scheduling; it feeds no simulated
	// result.
	Checks uint64

	// Stats
	NumACT, NumPRE, NumRD, NumWR, NumREF uint64
	RowHits, RowMisses, RowConflicts     uint64
	DataBusBusyCycles                    uint64
	// RefreshShadowCycles accumulates tRFC memory cycles per issued REF:
	// the windows in which a rank is unusable behind refresh. Windows of
	// different ranks may overlap in time, so this is rank-shadow work,
	// not an exclusive-busy wall time.
	RefreshShadowCycles uint64
	// bankCols counts column commands (RD+WR) per bank, indexed by
	// BankIndex — the profiler's bank-utilization histogram.
	bankCols []uint64
}

// NewChannel constructs a channel from the DRAM configuration.
func NewChannel(cfg config.DRAM) (*Channel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ch := &Channel{
		cfg:           cfg,
		t:             cfg.Timing,
		banksPerGroup: cfg.BanksPerGroup(),
		readBL:        int64((cfg.ReadBurstBeats + 1) / 2),
		writeBL:       int64((cfg.WriteBurstBeats + 1) / 2),
		lastBurstRank: -1,
		lastCmdCycle:  -1,
	}
	ch.bankCols = make([]uint64, cfg.Ranks*cfg.Banks)
	ch.banks = make([]bankState, cfg.Ranks*cfg.Banks)
	for b := range ch.banks {
		ch.banks[b].openRow = -1
		ch.banks[b].rank = int32(b / cfg.Banks)
		ch.banks[b].group = int32(b / ch.banksPerGroup)
	}
	ch.groups = make([]groupState, cfg.Ranks*cfg.BankGroups)
	ch.rank = make([]rankState, cfg.Ranks)
	for r := range ch.rank {
		for i := range ch.rank[r].actWindow {
			ch.rank[r].actWindow[i] = -1 << 40 // no ACT yet: tFAW inactive
		}
		if cfg.RefreshEnabled {
			// Stagger refresh across ranks to avoid lockstep stalls.
			ch.rank[r].nextREF = int64(cfg.Timing.TREFI) * int64(r+2) / int64(cfg.Ranks+1)
		} else {
			ch.rank[r].nextREF = 1 << 62
		}
	}
	return ch, nil
}

// Config returns the channel's configuration.
func (c *Channel) Config() config.DRAM { return c.cfg }

// BankIndex returns the channel-wide index of loc's bank: rank*Banks +
// bankGroup*banksPerGroup + bank. It is the key of the index-based
// accessors (OpenRowAt, OwnHorizon, EarliestIssueAt, EarliestIssueOwn)
// and of Counters.BankCols, and lies in [0, Ranks*Banks).
func (c *Channel) BankIndex(loc Loc) int {
	return loc.Rank*c.cfg.Banks + loc.BankGroup*c.banksPerGroup + loc.Bank
}

// rankBanks returns rank r's banks, a sub-slice of c.banks.
func (c *Channel) rankBanks(r int) []bankState {
	return c.banks[r*c.cfg.Banks : (r+1)*c.cfg.Banks]
}

// OpenRow returns the open row of the addressed bank and whether any row is
// open.
func (c *Channel) OpenRow(loc Loc) (uint32, bool) { return c.OpenRowAt(c.BankIndex(loc)) }

// OpenRowAt is OpenRow for the bank with channel-wide index b (BankIndex).
func (c *Channel) OpenRowAt(b int) (uint32, bool) {
	if row := c.banks[b].openRow; row >= 0 {
		return uint32(row), true
	}
	return 0, false
}

// RefreshDue reports whether the rank has crossed its refresh deadline and
// must be refreshed before further commands.
func (c *Channel) RefreshDue(rank int, now int64) bool {
	return c.cfg.RefreshEnabled && now >= c.rank[rank].nextREF
}

// NextRefresh returns the absolute memory cycle of the rank's next refresh
// deadline — the first cycle at which RefreshDue becomes true. It returns a
// far-future sentinel when refresh is disabled. The controller's next-event
// computation uses it to bound how far the clock may skip ahead.
func (c *Channel) NextRefresh(rank int) int64 {
	if !c.cfg.RefreshEnabled {
		return 1 << 62
	}
	return c.rank[rank].nextREF
}

// SkipRefreshTo advances every rank's refresh deadline past now in whole
// tREFI steps, preserving each rank's staggered phase. The sampled
// simulation mode calls it after a functional fast-forward jumps the
// clock: the refreshes inside the skipped span are deemed to have happened
// (the span carries no modeled timing for them to perturb), and without
// the rebase the controller would issue a catch-up burst of back-to-back
// REF commands that stalls the next measurement window with work the
// fast-forwarded span already accounted for. Deadlines at or beyond now —
// and disabled refresh — are untouched, so the call is idempotent.
func (c *Channel) SkipRefreshTo(now int64) {
	if !c.cfg.RefreshEnabled {
		return
	}
	trefi := int64(c.t.TREFI)
	for r := range c.rank {
		rk := &c.rank[r]
		if rk.nextREF >= now {
			continue
		}
		missed := (now-rk.nextREF)/trefi + 1
		rk.nextREF += missed * trefi
	}
}

// EarliestIssue returns the earliest cycle >= now at which the command could
// legally issue. It accounts for bank timing, rank constraints (tFAW,
// refresh), the shared data bus for column commands, and the one-command-
// per-cycle command bus.
func (c *Channel) EarliestIssue(cmd Command, loc Loc, now int64) int64 {
	return c.EarliestIssueAt(cmd, c.BankIndex(loc), now)
}

// EarliestIssueAt is EarliestIssue for the bank with channel-wide index bi
// (BankIndex). For CmdREF any bank of the rank to refresh will do.
func (c *Channel) EarliestIssueAt(cmd Command, bi int, now int64) int64 {
	return c.EarliestIssueOwn(cmd, bi, c.OwnHorizon(cmd, bi), now)
}

// OwnHorizon returns bank bi's own horizon for cmd: the bank's nextACT,
// nextPRE, nextRD or nextWR, the part of EarliestIssueAt that only a
// command to bank bi moves (ACT moves tRCD and tRAS, PRE tRP, RD tRTP and
// WR write recovery). CmdREF has no own horizon and returns 0. nextRD and
// nextWR are always equal: only ACT sets them, both to the same cycle.
func (c *Channel) OwnHorizon(cmd Command, bi int) int64 {
	b := &c.banks[bi]
	switch cmd {
	case CmdACT:
		return b.nextACT
	case CmdPRE:
		return b.nextPRE
	case CmdRD:
		return b.nextRD
	case CmdWR:
		return b.nextWR
	}
	return 0
}

// EarliestIssueOwn is EarliestIssueAt with bank bi's own horizon for cmd
// taken to be own instead of OwnHorizon(cmd, bi): the maximum of now, own,
// and every channel, rank and bank-group term of cmd at bi. A scheduler
// that keeps own horizons itself passes now for a bank it knows is past
// its own horizon. Each call is one timing check (Checks).
func (c *Channel) EarliestIssueOwn(cmd Command, bi int, own, now int64) int64 {
	c.Checks++
	b := &c.banks[bi]
	rk := &c.rank[b.rank]
	earliest := now
	if c.lastCmdCycle >= earliest {
		earliest = c.lastCmdCycle + 1
	}
	if rk.refBusy > earliest {
		earliest = rk.refBusy
	}

	switch cmd {
	case CmdACT:
		earliest = max(earliest, own)
		// tRRD: ACT-to-ACT spacing within the rank and the bank group. The
		// bank the last ACT opened is exempt: it met every earlier ACT's
		// spacing when it opened, and its own next ACT waits on its PRE.
		if int32(bi) != rk.actBank {
			earliest = max(earliest, rk.act)
		}
		if g := &c.groups[b.group]; int32(bi) != g.actBank {
			earliest = max(earliest, g.act)
		}
		// tFAW: at most four ACTs per rank per window.
		if oldest := rk.actWindow[rk.actIdx]; oldest+int64(c.t.TFAW) > earliest {
			earliest = oldest + int64(c.t.TFAW)
		}
	case CmdPRE:
		earliest = max(earliest, own)
	case CmdRD:
		g := &c.groups[b.group]
		earliest = max(earliest, own, c.colAny, g.col, rk.wtr, g.wtr)
		earliest = c.busConstrained(earliest, int(b.rank), int64(c.t.TCL), c.readBL)
	case CmdWR:
		earliest = max(earliest, own, c.colAny, c.groups[b.group].col, c.wrAfterRD)
		earliest = c.busConstrained(earliest, int(b.rank), int64(c.t.TCWL), c.writeBL)
	case CmdREF:
		// All banks must be precharged and past their ACT->PRE windows.
		for _, ob := range c.rankBanks(int(b.rank)) {
			if ob.openRow >= 0 {
				return -1 // caller must precharge first
			}
			if ob.nextACT > earliest {
				earliest = ob.nextACT
			}
		}
	}
	return earliest
}

// ColumnFloor returns the channel-wide part of a column command's issue
// horizon (cmd is RD or WR): the command bus, tCCD_S after the last column
// command, the read-to-write turnaround for WR, and the data bus without
// the rank-switch gap. No cmd can issue to any bank before it.
func (c *Channel) ColumnFloor(cmd Command) int64 {
	floor := max(c.lastCmdCycle+1, c.colAny)
	if cmd == CmdWR {
		return max(floor, c.wrAfterRD, c.dataBusFreeAt-int64(c.t.TCWL))
	}
	return max(floor, c.dataBusFreeAt-int64(c.t.TCL))
}

// busConstrained pushes a column command until its data burst fits on the
// shared data bus, including the rank-to-rank switch gap.
func (c *Channel) busConstrained(cmdCycle int64, rank int, lat, bl int64) int64 {
	free := c.dataBusFreeAt
	if c.lastBurstRank >= 0 && c.lastBurstRank != rank {
		free += int64(c.t.TRTRS)
	}
	if cmdCycle+lat < free {
		cmdCycle = free - lat
	}
	return cmdCycle
}

// CanIssue reports whether cmd may issue exactly at cycle now.
func (c *Channel) CanIssue(cmd Command, loc Loc, now int64) bool {
	e := c.EarliestIssue(cmd, loc, now)
	return e >= 0 && e == now
}

// Issue executes the command at cycle now. For RD and WR it returns the
// cycle at which the data burst completes (data available for reads; write
// fully transferred for writes). Issue panics if the command is illegal at
// now: the controller must consult EarliestIssue/CanIssue first — an illegal
// issue is a scheduler bug, not a runtime condition.
func (c *Channel) Issue(cmd Command, loc Loc, now int64) int64 {
	bi := c.BankIndex(loc)
	if e := c.EarliestIssueAt(cmd, bi, now); e != now {
		panic(fmt.Sprintf("dram: illegal %v to r%d/bg%d/b%d at cycle %d (earliest %d)",
			cmd, loc.Rank, loc.BankGroup, loc.Bank, now, e))
	}
	rk := &c.rank[loc.Rank]
	b := &c.banks[bi]
	c.lastCmdCycle = now

	switch cmd {
	case CmdACT:
		c.NumACT++
		b.openRow = int64(loc.Row)
		b.nextRD = max64(b.nextRD, now+int64(c.t.TRCD))
		b.nextWR = max64(b.nextWR, now+int64(c.t.TRCD))
		b.nextPRE = max64(b.nextPRE, now+int64(c.t.TRAS))
		g := &c.groups[b.group]
		rk.act, rk.actBank = now+int64(c.t.TRRDS), int32(bi)
		g.act, g.actBank = now+int64(c.t.TRRDL), int32(bi)
		rk.actWindow[rk.actIdx] = now
		rk.actIdx = (rk.actIdx + 1) % len(rk.actWindow)
		return 0

	case CmdPRE:
		c.NumPRE++
		b.openRow = -1
		b.nextACT = max64(b.nextACT, now+int64(c.t.TRP))
		return 0

	case CmdRD:
		c.NumRD++
		c.bankCols[bi]++
		dataStart := now + int64(c.t.TCL)
		dataEnd := dataStart + c.readBL
		c.occupyBus(dataStart, dataEnd, loc.Rank)
		b.nextPRE = max64(b.nextPRE, now+int64(c.t.TRTP))
		c.applyColToCol(b.group, now)
		// Read-to-write turnaround (bus direction change): WR command must
		// wait so its data follows the read burst plus 2-cycle gap.
		c.wrAfterRD = max64(c.wrAfterRD, now+int64(c.t.TCL)+c.readBL+2-int64(c.t.TCWL))
		return dataEnd

	case CmdWR:
		c.NumWR++
		c.bankCols[bi]++
		dataStart := now + int64(c.t.TCWL)
		dataEnd := dataStart + c.writeBL
		c.occupyBus(dataStart, dataEnd, loc.Rank)
		b.nextPRE = max64(b.nextPRE, dataEnd+int64(c.t.TWR))
		c.applyColToCol(b.group, now)
		// Write-to-read turnaround: same-rank reads wait tWTR after the
		// write data completes; the _L/_S distinction is by bank group.
		rk.wtr = max64(rk.wtr, dataEnd+int64(c.t.TWTRS))
		g := &c.groups[b.group]
		g.wtr = max64(g.wtr, dataEnd+int64(c.t.TWTRL))
		return dataEnd

	case CmdREF:
		c.NumREF++
		c.RefreshShadowCycles += uint64(c.t.TRFC)
		rk.refBusy = now + int64(c.t.TRFC)
		rk.nextREF += int64(c.t.TREFI)
		return rk.refBusy

	default:
		panic(fmt.Sprintf("dram: unknown command %v", cmd))
	}
}

// applyColToCol enforces tCCD_S/tCCD_L between successive column commands
// within the channel: a column command at now holds every bank's next one
// off by tCCD_S and its own bank group's (channel-wide index group) by
// tCCD_L.
func (c *Channel) applyColToCol(group int32, now int64) {
	c.colAny = max64(c.colAny, now+int64(c.t.TCCDS))
	g := &c.groups[group]
	g.col = max64(g.col, now+int64(c.t.TCCDL))
}

func (c *Channel) occupyBus(start, end int64, rank int) {
	c.DataBusBusyCycles += uint64(end - start)
	c.dataBusFreeAt = end
	c.lastBurstRank = rank
}

// Counters is a value snapshot of a channel's accumulated statistics,
// taken by the profiler at the measured-region boundary so per-channel
// deltas can be reported without reaching into live channel state.
type Counters struct {
	ACT, PRE, RD, WR, REF            uint64
	RowHits, RowMisses, RowConflicts uint64
	BusBusyCycles                    uint64
	RefreshShadowCycles              uint64
	BankCols                         []uint64 // per-bank column commands, rank-major
}

// Counters returns a snapshot of the channel's statistics; the BankCols
// slice is a copy.
func (c *Channel) Counters() Counters {
	return Counters{
		ACT: c.NumACT, PRE: c.NumPRE, RD: c.NumRD, WR: c.NumWR, REF: c.NumREF,
		RowHits: c.RowHits, RowMisses: c.RowMisses, RowConflicts: c.RowConflicts,
		BusBusyCycles:       c.DataBusBusyCycles,
		RefreshShadowCycles: c.RefreshShadowCycles,
		BankCols:            append([]uint64(nil), c.bankCols...),
	}
}

// Sub returns the element-wise difference k - base: the counter activity
// since base was snapshotted. The two snapshots must come from the same
// channel (equal BankCols geometry).
func (k Counters) Sub(base Counters) Counters {
	d := Counters{
		ACT: k.ACT - base.ACT, PRE: k.PRE - base.PRE, RD: k.RD - base.RD,
		WR: k.WR - base.WR, REF: k.REF - base.REF,
		RowHits: k.RowHits - base.RowHits, RowMisses: k.RowMisses - base.RowMisses,
		RowConflicts:        k.RowConflicts - base.RowConflicts,
		BusBusyCycles:       k.BusBusyCycles - base.BusBusyCycles,
		RefreshShadowCycles: k.RefreshShadowCycles - base.RefreshShadowCycles,
		BankCols:            append([]uint64(nil), k.BankCols...),
	}
	for i := range d.BankCols {
		d.BankCols[i] -= base.BankCols[i]
	}
	return d
}

// RecordRowOutcome lets the controller attribute a row-buffer outcome for
// statistics (hit: open row matched; miss: bank closed; conflict: wrong row
// open, precharge needed).
func (c *Channel) RecordRowOutcome(hit, conflict bool) {
	switch {
	case hit:
		c.RowHits++
	case conflict:
		c.RowConflicts++
	default:
		c.RowMisses++
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// DebugState renders per-bank timing state and the shared column
// horizons. Opt-in debugging aid for divergence localization (see
// memctrl.Controller.DebugState).
func (c *Channel) DebugState() string {
	var s strings.Builder
	fmt.Fprintf(&s, "bus=%d lastRank=%d lastCmd=%d col=%d wrAfterRD=%d groups=%v ",
		c.dataBusFreeAt, c.lastBurstRank, c.lastCmdCycle, c.colAny, c.wrAfterRD, c.groups)
	for r := range c.rank {
		rk := &c.rank[r]
		fmt.Fprintf(&s, "r%d(ref=%d,busy=%d,wtr=%d,act=%d@%d)[", r, rk.nextREF, rk.refBusy, rk.wtr, rk.act, rk.actBank)
		for b, bk := range c.rankBanks(r) {
			fmt.Fprintf(&s, "%d:%d/%d,%d,%d,%d ", b, bk.openRow, bk.nextACT, bk.nextPRE, bk.nextRD, bk.nextWR)
		}
		s.WriteString("] ")
	}
	return s.String()
}
