package memctrl

import (
	"fmt"
	"testing"

	"secddr/internal/config"
	"secddr/internal/dram"
)

// ---------------------------------------------------------------------------
// Reference refresh sequence: tryRefresh and nextRefreshStep as they were
// before refreshStep, each with a bank walk of its own, kept so the shared
// helper is checked against code it does not share.
// ---------------------------------------------------------------------------

func (c *Controller) refTryRefresh(r int, now int64) bool {
	anyOpen := false
	for bg := 0; bg < c.cfg.BankGroups; bg++ {
		for b := 0; b < c.cfg.BanksPerGroup(); b++ {
			loc := dram.Loc{Rank: r, BankGroup: bg, Bank: b}
			if _, open := c.ch.OpenRow(loc); open {
				anyOpen = true
				if c.ch.CanIssue(dram.CmdPRE, loc, now) {
					c.ch.Issue(dram.CmdPRE, loc, now)
					c.rowChanged(c.ch.BankIndex(loc))
					c.touch()
					return true
				}
			}
		}
	}
	if anyOpen {
		return false
	}
	loc := dram.Loc{Rank: r}
	if c.ch.CanIssue(dram.CmdREF, loc, now) {
		c.ch.Issue(dram.CmdREF, loc, now)
		c.touch()
		return true
	}
	return false
}

func (c *Controller) refNextRefreshStep(r int, now int64) int64 {
	next := int64(1) << 62
	anyOpen := false
	for bg := 0; bg < c.cfg.BankGroups; bg++ {
		for b := 0; b < c.cfg.BanksPerGroup(); b++ {
			loc := dram.Loc{Rank: r, BankGroup: bg, Bank: b}
			if _, open := c.ch.OpenRow(loc); open {
				anyOpen = true
				if t := c.ch.EarliestIssue(dram.CmdPRE, loc, now+1); t < next {
					next = t
				}
			}
		}
	}
	if anyOpen {
		return next
	}
	return c.ch.EarliestIssue(dram.CmdREF, dram.Loc{Rank: r}, now+1)
}

// TestRefreshStepMatchesReference runs seeded refresh-enabled request
// streams on DDR4 and DDR5 geometries with 1, 2 and 4 ranks. At every
// cycle on which a rank is refresh-due, in rank order as issueOne visits
// them, it asks refreshStep for the rank's next command at now and at
// now+1 and checks both answers against the reference: the bound against
// refNextRefreshStep, and the choice against what refTryRefresh then
// issues (nothing unless the step can issue at now; else the same PRE
// bank, or REF to the same rank). The controller then ticks as usual.
// Each case must issue REFs and meet PREs that tie for the earliest
// cycle, where the lowest bank index must win.
func TestRefreshStepMatchesReference(t *testing.T) {
	const cycles = 20000
	geoms := []struct {
		name string
		dram config.DRAM
	}{
		{"ddr4", config.Table1(config.ModeUnprotected).DRAM},
		{"ddr5", config.Table1DDR5(config.ModeUnprotected).DRAM},
	}
	p := pattern{name: "spread", hotBanks: 64, rows: 8, writeFrac: 0.3, rate: 0.5, refresh: true}
	seed := uint64(100)
	for _, g := range geoms {
		for _, ranks := range []int{1, 2, 4} {
			seed++
			cfg := diffConfig(g.dram, ranks, true)
			t.Run(fmt.Sprintf("%s/ranks%d", g.name, ranks), func(t *testing.T) {
				c := newCtl(t, cfg)
				s := newStream(t, cfg, p, seed)
				steps, ties := 0, 0
				for now := int64(0); now < cycles; now++ {
					for n := s.arrivals(); n > 0; n-- {
						addr, write := s.next()
						if write {
							_ = c.EnqueueWrite(addr, now)
						} else {
							_, _ = c.EnqueueRead(addr, now, 0)
						}
					}
					for r := 0; r < ranks; r++ {
						if !c.ch.RefreshDue(r, now) {
							continue
						}
						steps++
						issued, tie := checkRefreshStep(t, c, r, now)
						if tie {
							ties++
						}
						if issued {
							break
						}
					}
					c.Tick(now)
				}
				if k := c.ch.Counters(); k.REF == 0 || ties == 0 {
					t.Fatalf("%d refresh-due steps met %d PRE ties and issued %d REFs; want both", steps, ties, k.REF)
				}
				t.Logf("%d refresh-due steps, %d PRE ties, %d REFs", steps, ties, c.ch.Counters().REF)
			})
		}
	}
}

// checkRefreshStep compares refreshStep for rank r at now with the
// reference, lets refTryRefresh act, and reports whether it issued and
// whether several open banks could issue PRE at the chosen cycle.
func checkRefreshStep(t *testing.T, c *Controller, r int, now int64) (issued, tie bool) {
	t.Helper()
	if _, _, got := c.refreshStep(r, now+1); got != c.refNextRefreshStep(r, now) {
		t.Fatalf("cycle %d rank %d: refreshStep bound %d, reference %d", now, r, got, c.refNextRefreshStep(r, now))
	}
	cmd, b, at := c.refreshStep(r, now)
	if cmd == dram.CmdPRE {
		n := 0
		for bi := r * c.cfg.Banks; bi < (r+1)*c.cfg.Banks; bi++ {
			if _, open := c.ch.OpenRowAt(bi); open && c.ch.EarliestIssueAt(dram.CmdPRE, bi, now) == at {
				n++
			}
		}
		tie = n > 1
	}
	before, deadline := c.ch.Counters(), c.ch.NextRefresh(r)
	issued = c.refTryRefresh(r, now)
	if issued != (at == now) {
		t.Fatalf("cycle %d rank %d: refreshStep says %v at %d, reference issued=%v", now, r, cmd, at, issued)
	}
	if !issued {
		return false, tie
	}
	after := c.ch.Counters()
	switch cmd {
	case dram.CmdPRE:
		if _, open := c.ch.OpenRowAt(b); open || after.PRE != before.PRE+1 {
			t.Fatalf("cycle %d rank %d: refreshStep chose PRE to bank %d, reference closed another bank", now, r, b)
		}
	case dram.CmdREF:
		if b/c.cfg.Banks != r || after.REF != before.REF+1 || c.ch.NextRefresh(r) == deadline {
			t.Fatalf("cycle %d rank %d: refreshStep chose REF via bank %d, reference refreshed another rank", now, r, b)
		}
	default:
		t.Fatalf("cycle %d rank %d: refreshStep chose %v", now, r, cmd)
	}
	return true, tie
}
