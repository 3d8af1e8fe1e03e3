package dram

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"secddr/internal/config"
)

func testDRAM(refresh bool) config.DRAM {
	d := config.Table1(config.ModeUnprotected).DRAM
	d.RefreshEnabled = refresh
	return d
}

func newTestChannel(t *testing.T, refresh bool) *Channel {
	t.Helper()
	ch, err := NewChannel(testDRAM(refresh))
	if err != nil {
		t.Fatalf("NewChannel: %v", err)
	}
	return ch
}

// issueAt advances to the command's earliest legal cycle and issues it.
func issueAt(t *testing.T, ch *Channel, cmd Command, loc Loc, notBefore int64) (int64, int64) {
	t.Helper()
	at := ch.EarliestIssue(cmd, loc, notBefore)
	if at < 0 {
		t.Fatalf("EarliestIssue(%v) = %d", cmd, at)
	}
	done := ch.Issue(cmd, loc, at)
	return at, done
}

func TestActivateToReadRespectsTRCD(t *testing.T) {
	ch := newTestChannel(t, false)
	loc := Loc{Rank: 0, BankGroup: 0, Bank: 0, Row: 5, Col: 3}
	actAt, _ := issueAt(t, ch, CmdACT, loc, 0)
	rdAt := ch.EarliestIssue(CmdRD, loc, actAt+1)
	if want := actAt + int64(ch.t.TRCD); rdAt != want {
		t.Errorf("RD earliest = %d, want %d (tRCD)", rdAt, want)
	}
}

func TestReadDataTiming(t *testing.T) {
	ch := newTestChannel(t, false)
	loc := Loc{Row: 1}
	issueAt(t, ch, CmdACT, loc, 0)
	rdAt, done := issueAt(t, ch, CmdRD, loc, 0)
	// BL8: data occupies 4 memory cycles starting tCL after the command.
	if want := rdAt + int64(ch.t.TCL) + 4; done != want {
		t.Errorf("read data done = %d, want %d", done, want)
	}
}

func TestWriteBurstLengthEWCRC(t *testing.T) {
	d := testDRAM(false)
	d.WriteBurstBeats = 10 // SecDDR eWCRC
	ch, err := NewChannel(d)
	if err != nil {
		t.Fatal(err)
	}
	loc := Loc{Row: 1}
	if at := ch.EarliestIssue(CmdACT, loc, 0); at != 0 {
		t.Fatalf("ACT earliest = %d", at)
	}
	ch.Issue(CmdACT, loc, 0)
	wrAt := ch.EarliestIssue(CmdWR, loc, 1)
	done := ch.Issue(CmdWR, loc, wrAt)
	if want := wrAt + int64(ch.t.TCWL) + 5; done != want {
		t.Errorf("BL10 write done = %d, want %d (5-cycle burst)", done, want)
	}
}

func TestRowBufferStates(t *testing.T) {
	ch := newTestChannel(t, false)
	loc := Loc{Row: 9}
	if _, open := ch.OpenRow(loc); open {
		t.Fatal("bank open before any ACT")
	}
	issueAt(t, ch, CmdACT, loc, 0)
	row, open := ch.OpenRow(loc)
	if !open || row != 9 {
		t.Fatalf("open row = %d,%v, want 9,true", row, open)
	}
	issueAt(t, ch, CmdPRE, loc, 0)
	if _, open := ch.OpenRow(loc); open {
		t.Fatal("bank still open after PRE")
	}
}

func TestPrechargeRespectsTRAS(t *testing.T) {
	ch := newTestChannel(t, false)
	loc := Loc{Row: 2}
	actAt, _ := issueAt(t, ch, CmdACT, loc, 0)
	preAt := ch.EarliestIssue(CmdPRE, loc, actAt+1)
	if want := actAt + int64(ch.t.TRAS); preAt != want {
		t.Errorf("PRE earliest = %d, want %d (tRAS)", preAt, want)
	}
}

func TestActToActSameBankRequiresPrecharge(t *testing.T) {
	ch := newTestChannel(t, false)
	loc := Loc{Row: 2}
	actAt, _ := issueAt(t, ch, CmdACT, loc, 0)
	preAt, _ := issueAt(t, ch, CmdPRE, loc, actAt+1)
	loc2 := loc
	loc2.Row = 7
	actAt2 := ch.EarliestIssue(CmdACT, loc2, preAt+1)
	if want := preAt + int64(ch.t.TRP); actAt2 != want {
		t.Errorf("second ACT earliest = %d, want %d (tRP after PRE)", actAt2, want)
	}
}

func TestColumnToColumnBankGroupTiming(t *testing.T) {
	ch := newTestChannel(t, false)
	same := Loc{BankGroup: 0, Bank: 0, Row: 1}
	sameBG := Loc{BankGroup: 0, Bank: 1, Row: 1}
	diffBG := Loc{BankGroup: 1, Bank: 0, Row: 1}
	issueAt(t, ch, CmdACT, same, 0)
	issueAt(t, ch, CmdACT, sameBG, 0)
	issueAt(t, ch, CmdACT, diffBG, 0)
	rdAt, _ := issueAt(t, ch, CmdRD, same, 100)
	// Same bank group: tCCD_L; different: tCCD_S.
	if got := ch.EarliestIssue(CmdRD, sameBG, rdAt); got != rdAt+int64(ch.t.TCCDL) {
		t.Errorf("same-BG RD->RD gap = %d, want tCCD_L=%d", got-rdAt, ch.t.TCCDL)
	}
	if got := ch.EarliestIssue(CmdRD, diffBG, rdAt); got != rdAt+int64(ch.t.TCCDS) {
		t.Errorf("diff-BG RD->RD gap = %d, want tCCD_S=%d", got-rdAt, ch.t.TCCDS)
	}
}

func TestWriteToReadTurnaround(t *testing.T) {
	ch := newTestChannel(t, false)
	wloc := Loc{BankGroup: 0, Bank: 0, Row: 1}
	rSame := Loc{BankGroup: 0, Bank: 1, Row: 1}
	rDiff := Loc{BankGroup: 2, Bank: 0, Row: 1}
	issueAt(t, ch, CmdACT, wloc, 0)
	issueAt(t, ch, CmdACT, rSame, 0)
	issueAt(t, ch, CmdACT, rDiff, 0)
	wrAt, wrDone := issueAt(t, ch, CmdWR, wloc, 100)
	gotSame := ch.EarliestIssue(CmdRD, rSame, wrAt+1)
	if want := wrDone + int64(ch.t.TWTRL); gotSame != want {
		t.Errorf("same-BG WR->RD = %d, want %d (tWTR_L after data)", gotSame, want)
	}
	gotDiff := ch.EarliestIssue(CmdRD, rDiff, wrAt+1)
	if want := wrDone + int64(ch.t.TWTRS); gotDiff != want {
		t.Errorf("diff-BG WR->RD = %d, want %d (tWTR_S after data)", gotDiff, want)
	}
}

func TestReadToWriteTurnaround(t *testing.T) {
	ch := newTestChannel(t, false)
	loc := Loc{Row: 1}
	other := Loc{BankGroup: 1, Row: 1}
	issueAt(t, ch, CmdACT, loc, 0)
	issueAt(t, ch, CmdACT, other, 0)
	rdAt, _ := issueAt(t, ch, CmdRD, loc, 50)
	wrAt := ch.EarliestIssue(CmdWR, other, rdAt+1)
	// WR data must trail the read burst by the 2-cycle turnaround gap.
	want := rdAt + int64(ch.t.TCL) + 4 + 2 - int64(ch.t.TCWL)
	if wrAt != want {
		t.Errorf("RD->WR command gap = %d, want %d", wrAt-rdAt, want-rdAt)
	}
}

func TestTFAWLimitsActivates(t *testing.T) {
	ch := newTestChannel(t, false)
	var lastAct int64
	var first int64
	for i := 0; i < 5; i++ {
		loc := Loc{BankGroup: i % 4, Bank: i / 4, Row: 1}
		at, _ := issueAt(t, ch, CmdACT, loc, lastAct+1)
		if i == 0 {
			first = at
		}
		lastAct = at
	}
	if lastAct < first+int64(ch.t.TFAW) {
		t.Errorf("fifth ACT at %d violates tFAW window starting %d", lastAct, first)
	}
}

func TestRankToRankSwitchPenalty(t *testing.T) {
	ch := newTestChannel(t, false)
	r0 := Loc{Rank: 0, Row: 1}
	r1 := Loc{Rank: 1, Row: 1}
	issueAt(t, ch, CmdACT, r0, 0)
	issueAt(t, ch, CmdACT, r1, 0)
	rdAt, done := issueAt(t, ch, CmdRD, r0, 50)
	got := ch.EarliestIssue(CmdRD, r1, rdAt+1)
	// Cross-rank read: burst must start tRTRS after the previous burst ends.
	if want := done + int64(ch.t.TRTRS) - int64(ch.t.TCL); got != want {
		t.Errorf("cross-rank RD earliest = %d, want %d", got, want)
	}
}

func TestRefreshBlocksRank(t *testing.T) {
	ch := newTestChannel(t, true)
	rank := 0
	deadline := ch.rank[rank].nextREF
	if ch.RefreshDue(rank, deadline-1) {
		t.Error("refresh due before deadline")
	}
	if !ch.RefreshDue(rank, deadline) {
		t.Error("refresh not due at deadline")
	}
	loc := Loc{Rank: rank, Row: 1}
	refAt, busyUntil := issueAt(t, ch, CmdREF, loc, deadline)
	if busyUntil != refAt+int64(ch.t.TRFC) {
		t.Errorf("refresh busy until %d, want %d", busyUntil, refAt+int64(ch.t.TRFC))
	}
	if got := ch.EarliestIssue(CmdACT, loc, refAt+1); got < busyUntil {
		t.Errorf("ACT allowed at %d during refresh (busy until %d)", got, busyUntil)
	}
	if ch.RefreshDue(rank, refAt+1) {
		t.Error("refresh still due immediately after REF")
	}
}

func TestRefreshRequiresClosedBanks(t *testing.T) {
	ch := newTestChannel(t, true)
	loc := Loc{Rank: 0, Row: 3}
	issueAt(t, ch, CmdACT, loc, 0)
	if got := ch.EarliestIssue(CmdREF, loc, 10); got != -1 {
		t.Errorf("REF with open bank returned %d, want -1", got)
	}
}

func TestIllegalIssuePanics(t *testing.T) {
	ch := newTestChannel(t, false)
	defer func() {
		if recover() == nil {
			t.Error("Issue of RD on closed bank did not panic")
		}
	}()
	// RD without ACT at cycle 0 violates tRCD bookkeeping only if nextRD>0;
	// force illegality via wrong cycle: issue ACT at 0 then RD at 1 (<tRCD).
	ch.Issue(CmdACT, Loc{Row: 1}, 0)
	ch.Issue(CmdRD, Loc{Row: 1}, 1)
}

func TestCommandBusOneCommandPerCycle(t *testing.T) {
	ch := newTestChannel(t, false)
	a := Loc{BankGroup: 0, Row: 1}
	b := Loc{BankGroup: 1, Row: 1}
	actAt, _ := issueAt(t, ch, CmdACT, a, 0)
	got := ch.EarliestIssue(CmdACT, b, actAt)
	if got <= actAt {
		t.Errorf("two commands share cycle %d", actAt)
	}
}

func TestStatsCounting(t *testing.T) {
	ch := newTestChannel(t, false)
	loc := Loc{Row: 1}
	issueAt(t, ch, CmdACT, loc, 0)
	issueAt(t, ch, CmdRD, loc, 0)
	issueAt(t, ch, CmdRD, loc, 0)
	if ch.NumACT != 1 || ch.NumRD != 2 {
		t.Errorf("stats ACT=%d RD=%d, want 1,2", ch.NumACT, ch.NumRD)
	}
	ch.RecordRowOutcome(true, false)
	ch.RecordRowOutcome(false, true)
	ch.RecordRowOutcome(false, false)
	if ch.RowHits != 1 || ch.RowConflicts != 1 || ch.RowMisses != 1 {
		t.Error("row outcome accounting wrong")
	}
}

func TestCommandString(t *testing.T) {
	for cmd, want := range map[Command]string{
		CmdACT: "ACT", CmdPRE: "PRE", CmdRD: "RD", CmdWR: "WR", CmdREF: "REF",
	} {
		if cmd.String() != want {
			t.Errorf("%v.String() = %q", cmd, cmd.String())
		}
	}
}

// TestDataBusNeverOverlaps drives a random command mix through the channel
// and asserts the fundamental bus invariant: no two data bursts may occupy
// overlapping cycles (plus the rank-to-rank gap when ranks switch).
func TestDataBusNeverOverlaps(t *testing.T) {
	ch := newTestChannel(t, false)
	type burst struct {
		start, end int64
		rank       int
	}
	var bursts []burst
	rng := uint64(12345)
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 33 % n
	}
	now := int64(0)
	for i := 0; i < 500; i++ {
		loc := Loc{
			Rank:      int(next(2)),
			BankGroup: int(next(4)),
			Bank:      int(next(4)),
			Row:       uint32(next(16)),
		}
		// Open the right row if needed.
		if row, open := ch.OpenRow(loc); !open || row != loc.Row {
			if open {
				at := ch.EarliestIssue(CmdPRE, loc, now)
				now = at
				ch.Issue(CmdPRE, loc, now)
			}
			at := ch.EarliestIssue(CmdACT, loc, now)
			now = at
			ch.Issue(CmdACT, loc, now)
		}
		cmd := CmdRD
		lat := int64(ch.t.TCL)
		bl := ch.readBL
		if next(3) == 0 {
			cmd = CmdWR
			lat = int64(ch.t.TCWL)
			bl = ch.writeBL
		}
		at := ch.EarliestIssue(cmd, loc, now)
		now = at
		ch.Issue(cmd, loc, now)
		bursts = append(bursts, burst{start: at + lat, end: at + lat + bl, rank: loc.Rank})
	}
	for i := 1; i < len(bursts); i++ {
		prev, cur := bursts[i-1], bursts[i]
		if cur.start < prev.end {
			t.Fatalf("burst %d [%d,%d) overlaps previous [%d,%d)", i, cur.start, cur.end, prev.start, prev.end)
		}
		if cur.rank != prev.rank && cur.start < prev.end+int64(ch.t.TRTRS) {
			t.Fatalf("burst %d violates rank-to-rank gap", i)
		}
	}
}

// BenchmarkChannelEarliestIssue times the timing-legality check the
// scheduler makes for every bank it examines, on a channel whose banks hold
// a seeded mix of open rows and timing horizons. loc addresses banks by
// Loc, index by the precomputed BankIndex the controller keeps per request.
func BenchmarkChannelEarliestIssue(b *testing.B) {
	ch, err := NewChannel(testDRAM(false))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(42, 42))
	randLoc := func() Loc {
		return Loc{
			Rank:      rng.IntN(ch.cfg.Ranks),
			BankGroup: rng.IntN(ch.cfg.BankGroups),
			Bank:      rng.IntN(ch.banksPerGroup),
			Row:       uint32(rng.IntN(16)),
		}
	}
	// Drive a seeded command stream so the banks' state is varied.
	now := int64(0)
	for i := 0; i < 2000; i++ {
		loc := randLoc()
		if row, open := ch.OpenRow(loc); !open || row != loc.Row {
			if open {
				now = ch.EarliestIssue(CmdPRE, loc, now)
				ch.Issue(CmdPRE, loc, now)
			}
			now = ch.EarliestIssue(CmdACT, loc, now)
			ch.Issue(CmdACT, loc, now)
		}
		cmd := CmdRD
		if rng.IntN(3) == 0 {
			cmd = CmdWR
		}
		now = ch.EarliestIssue(cmd, loc, now)
		ch.Issue(cmd, loc, now)
	}
	type query struct {
		cmd  Command
		loc  Loc
		bank int
	}
	queries := make([]query, 256)
	for i := range queries {
		loc := randLoc()
		queries[i] = query{Command(1 + rng.IntN(4)), loc, ch.BankIndex(loc)}
	}
	b.Run("loc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := &queries[i%len(queries)]
			benchSink += ch.EarliestIssue(q.cmd, q.loc, now)
		}
	})
	b.Run("index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := &queries[i%len(queries)]
			benchSink += ch.EarliestIssueAt(q.cmd, q.bank, now)
		}
	})
}

// BenchmarkChannelIssue times one EarliestIssueAt plus Issue of one command
// kind on the Table I channel, walking its banks round robin. rd and wr
// keep every bank's row open and time only column commands; act and pre
// alternate whole-channel sweeps of ACTs and PREs and time only the named
// sweep, the other one running with the timer stopped.
func BenchmarkChannelIssue(b *testing.B) {
	for _, cmd := range []Command{CmdACT, CmdPRE, CmdRD, CmdWR} {
		b.Run(strings.ToLower(cmd.String()), func(b *testing.B) {
			ch, err := NewChannel(testDRAM(false))
			if err != nil {
				b.Fatal(err)
			}
			locs := make([]Loc, len(ch.banks))
			for bi := range locs {
				locs[bi] = Loc{Rank: bi / ch.cfg.Banks, BankGroup: bi % ch.cfg.Banks / ch.banksPerGroup,
					Bank: bi % ch.banksPerGroup, Row: 1}
			}
			var now int64
			sweep := func(c Command) {
				for bi, loc := range locs {
					now = ch.EarliestIssueAt(c, bi, now)
					ch.Issue(c, loc, now)
				}
			}
			other := Command(0) // the untimed sweep between timed ones
			switch cmd {
			case CmdACT:
				other = CmdPRE
			case CmdPRE:
				sweep(CmdACT)
				other = CmdACT
			default:
				sweep(CmdACT)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; {
				for bi := 0; bi < len(locs) && i < b.N; bi, i = bi+1, i+1 {
					now = ch.EarliestIssueAt(cmd, bi, now)
					ch.Issue(cmd, locs[bi], now)
				}
				if other != 0 && i < b.N {
					b.StopTimer()
					sweep(other)
					b.StartTimer()
				}
			}
		})
	}
}

// benchSink keeps benchmarked results live.
var benchSink int64

// TestOwnHorizons checks the split of EarliestIssueAt that a scheduler
// indexing own horizons relies on, on seeded legal command streams (with a
// short refresh interval) over DDR4 and DDR5 geometries with 1, 2 and 4 ranks. At every
// cycle up to each issue and for every bank and command: the full check is
// the maximum of the bank's own horizon and EarliestIssueOwn with that
// horizon taken as now; ColumnFloor never exceeds a column command's
// earliest cycle; and nextRD equals nextWR. After every issue, no bank but
// the target has a different own horizon for any command.
func TestOwnHorizons(t *testing.T) {
	geoms := []struct {
		name string
		dram config.DRAM
	}{
		{"ddr4", config.Table1(config.ModeUnprotected).DRAM},
		{"ddr5", config.Table1DDR5(config.ModeUnprotected).DRAM},
	}
	seed := uint64(40)
	for _, g := range geoms {
		for _, ranks := range []int{1, 2, 4} {
			seed++
			cfg := g.dram
			cfg.Ranks = ranks
			cfg.RefreshEnabled = true
			cfg.Timing.TREFI = 2000 // refresh several times per stream
			t.Run(fmt.Sprintf("%s/ranks%d", g.name, ranks), func(t *testing.T) {
				ch, err := NewChannel(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewPCG(seed, 0x0f1))
				cmds := []Command{CmdACT, CmdPRE, CmdRD, CmdWR}
				own := make([][4]int64, len(ch.banks))
				check := func(now int64) {
					for bi := range ch.banks {
						if ch.OwnHorizon(CmdRD, bi) != ch.OwnHorizon(CmdWR, bi) {
							t.Fatalf("cycle %d bank %d: nextRD %d, nextWR %d", now, bi, ch.OwnHorizon(CmdRD, bi), ch.OwnHorizon(CmdWR, bi))
						}
						for _, cmd := range cmds {
							full := ch.EarliestIssueAt(cmd, bi, now)
							if split := max(ch.OwnHorizon(cmd, bi), ch.EarliestIssueOwn(cmd, bi, now, now)); split != full {
								t.Fatalf("cycle %d bank %d %v: own horizon with EarliestIssueOwn gives %d, EarliestIssueAt %d", now, bi, cmd, split, full)
							}
							if (cmd == CmdRD || cmd == CmdWR) && ch.ColumnFloor(cmd) > full {
								t.Fatalf("cycle %d bank %d %v: ColumnFloor %d above earliest %d", now, bi, cmd, ch.ColumnFloor(cmd), full)
							}
						}
					}
				}
				issue := func(cmd Command, loc Loc, now int64) int64 {
					at := ch.EarliestIssue(cmd, loc, now)
					for c := now; c <= at; c++ {
						check(c)
					}
					for bi := range ch.banks {
						for i, c := range cmds {
							own[bi][i] = ch.OwnHorizon(c, bi)
						}
					}
					ch.Issue(cmd, loc, at)
					target := ch.BankIndex(loc)
					for bi := range ch.banks {
						for i, c := range cmds {
							if bi != target && ch.OwnHorizon(c, bi) != own[bi][i] {
								t.Fatalf("cycle %d: %v to bank %d moved bank %d's %v horizon %d -> %d", at, cmd, target, bi, c, own[bi][i], ch.OwnHorizon(c, bi))
							}
						}
					}
					return at + 1
				}
				var now int64
				for step := 0; step < 600; step++ {
					loc := Loc{
						Rank:      rng.IntN(cfg.Ranks),
						BankGroup: rng.IntN(cfg.BankGroups),
						Bank:      rng.IntN(ch.banksPerGroup),
						Row:       uint32(rng.IntN(2)),
					}
					if ch.RefreshDue(loc.Rank, now) {
						for bi := loc.Rank * cfg.Banks; bi < (loc.Rank+1)*cfg.Banks; bi++ {
							if _, open := ch.OpenRowAt(bi); open {
								now = issue(CmdPRE, Loc{Rank: loc.Rank, BankGroup: bi % cfg.Banks / ch.banksPerGroup, Bank: bi % ch.banksPerGroup}, now)
							}
						}
						now = issue(CmdREF, loc, now)
						continue
					}
					cmd := CmdACT
					switch row, open := ch.OpenRow(loc); {
					case open && row == loc.Row:
						cmd = []Command{CmdRD, CmdRD, CmdWR}[rng.IntN(3)]
					case open:
						cmd = CmdPRE
					}
					now = issue(cmd, loc, now)
				}
				if ch.NumREF == 0 || ch.NumWR == 0 {
					t.Fatalf("stream missed a command kind: %+v", ch.Counters())
				}
			})
		}
	}
}
