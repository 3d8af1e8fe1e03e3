package dram

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"secddr/internal/config"
)

// ---------------------------------------------------------------------------
// Reference channel. refChannel is Channel as it was before the shared
// column horizons: every RD and WR fans its tCCD, read-to-write and tWTR
// constraints out to each affected bank's nextRD/nextWR, and EarliestIssueAt
// reads only the bank. NewChannel, EarliestIssueAt, Issue, Clone and
// AdoptState are verbatim apart from names; the statistics live in a real
// Channel (stats), whose Counters the test compares. The differential
// test runs it beside the real channel on the same command stream and
// asserts the two never diverge.
// ---------------------------------------------------------------------------

type refBank struct {
	openRow                          int64
	nextACT, nextPRE, nextRD, nextWR int64
	rank                             int
}

type refChannel struct {
	stats *Channel // counters only: NumACT..bankCols
	t     config.DRAMTiming
	cfg   config.DRAM
	rank  []rankState
	banks []refBank

	banksPerGroup   int
	readBL, writeBL int64

	dataBusFreeAt int64
	lastBurstRank int
	lastCmdCycle  int64
}

func newRefChannel(t *testing.T, cfg config.DRAM) *refChannel {
	t.Helper()
	stats, err := NewChannel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch := &refChannel{
		stats:         stats,
		cfg:           cfg,
		t:             cfg.Timing,
		banksPerGroup: cfg.BanksPerGroup(),
		readBL:        int64((cfg.ReadBurstBeats + 1) / 2),
		writeBL:       int64((cfg.WriteBurstBeats + 1) / 2),
		lastBurstRank: -1,
		lastCmdCycle:  -1,
		rank:          append([]rankState(nil), stats.rank...),
	}
	ch.banks = make([]refBank, cfg.Ranks*cfg.Banks)
	for b := range ch.banks {
		ch.banks[b].openRow = -1
		ch.banks[b].rank = b / cfg.Banks
	}
	return ch
}

func (c *refChannel) rankBanks(r int) []refBank {
	return c.banks[r*c.cfg.Banks : (r+1)*c.cfg.Banks]
}

func (c *refChannel) EarliestIssueAt(cmd Command, bi int, now int64) int64 {
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
		if b.nextACT > earliest {
			earliest = b.nextACT
		}
		if oldest := rk.actWindow[rk.actIdx]; oldest+int64(c.t.TFAW) > earliest {
			earliest = oldest + int64(c.t.TFAW)
		}
	case CmdPRE:
		if b.nextPRE > earliest {
			earliest = b.nextPRE
		}
	case CmdRD:
		if b.nextRD > earliest {
			earliest = b.nextRD
		}
		earliest = c.busConstrained(earliest, b.rank, int64(c.t.TCL), c.readBL)
	case CmdWR:
		if b.nextWR > earliest {
			earliest = b.nextWR
		}
		earliest = c.busConstrained(earliest, b.rank, int64(c.t.TCWL), c.writeBL)
	case CmdREF:
		for _, ob := range c.rankBanks(b.rank) {
			if ob.openRow >= 0 {
				return -1
			}
			if ob.nextACT > earliest {
				earliest = ob.nextACT
			}
		}
	}
	return earliest
}

func (c *refChannel) busConstrained(cmdCycle int64, rank int, lat, bl int64) int64 {
	free := c.dataBusFreeAt
	if c.lastBurstRank >= 0 && c.lastBurstRank != rank {
		free += int64(c.t.TRTRS)
	}
	if cmdCycle+lat < free {
		cmdCycle = free - lat
	}
	return cmdCycle
}

func (c *refChannel) Issue(cmd Command, loc Loc, now int64) int64 {
	bi := c.stats.BankIndex(loc)
	if e := c.EarliestIssueAt(cmd, bi, now); e != now {
		panic(fmt.Sprintf("ref: illegal %v to %+v at cycle %d (earliest %d)", cmd, loc, now, e))
	}
	rk := &c.rank[loc.Rank]
	b := &c.banks[bi]
	st := c.stats
	c.lastCmdCycle = now
	switch cmd {
	case CmdACT:
		st.NumACT++
		b.openRow = int64(loc.Row)
		b.nextRD = max64(b.nextRD, now+int64(c.t.TRCD))
		b.nextWR = max64(b.nextWR, now+int64(c.t.TRCD))
		b.nextPRE = max64(b.nextPRE, now+int64(c.t.TRAS))
		rb := c.rankBanks(loc.Rank)
		for i := range rb {
			ob := &rb[i]
			if ob == b {
				continue
			}
			if i/c.banksPerGroup == loc.BankGroup {
				ob.nextACT = max64(ob.nextACT, now+int64(c.t.TRRDL))
			} else {
				ob.nextACT = max64(ob.nextACT, now+int64(c.t.TRRDS))
			}
		}
		rk.actWindow[rk.actIdx] = now
		rk.actIdx = (rk.actIdx + 1) % len(rk.actWindow)
		return 0
	case CmdPRE:
		st.NumPRE++
		b.openRow = -1
		b.nextACT = max64(b.nextACT, now+int64(c.t.TRP))
		return 0
	case CmdRD:
		st.NumRD++
		st.bankCols[bi]++
		dataStart := now + int64(c.t.TCL)
		dataEnd := dataStart + c.readBL
		c.occupyBus(dataStart, dataEnd, loc.Rank)
		b.nextPRE = max64(b.nextPRE, now+int64(c.t.TRTP))
		c.applyColToCol(loc, now)
		rdToWr := now + int64(c.t.TCL) + c.readBL + 2 - int64(c.t.TCWL)
		for i := range c.banks {
			c.banks[i].nextWR = max64(c.banks[i].nextWR, rdToWr)
		}
		return dataEnd
	case CmdWR:
		st.NumWR++
		st.bankCols[bi]++
		dataStart := now + int64(c.t.TCWL)
		dataEnd := dataStart + c.writeBL
		c.occupyBus(dataStart, dataEnd, loc.Rank)
		b.nextPRE = max64(b.nextPRE, dataEnd+int64(c.t.TWR))
		c.applyColToCol(loc, now)
		rb := c.rankBanks(loc.Rank)
		for i := range rb {
			ob := &rb[i]
			if i/c.banksPerGroup == loc.BankGroup {
				ob.nextRD = max64(ob.nextRD, dataEnd+int64(c.t.TWTRL))
			} else {
				ob.nextRD = max64(ob.nextRD, dataEnd+int64(c.t.TWTRS))
			}
		}
		return dataEnd
	case CmdREF:
		st.NumREF++
		st.RefreshShadowCycles += uint64(c.t.TRFC)
		rk.refBusy = now + int64(c.t.TRFC)
		rk.nextREF += int64(c.t.TREFI)
		rb := c.rankBanks(loc.Rank)
		for i := range rb {
			rb[i].nextACT = max64(rb[i].nextACT, rk.refBusy)
		}
		return rk.refBusy
	}
	panic(fmt.Sprintf("ref: unknown command %v", cmd))
}

func (c *refChannel) applyColToCol(loc Loc, now int64) {
	group := c.stats.BankIndex(loc) / c.banksPerGroup
	for i := range c.banks {
		ob := &c.banks[i]
		var gap int64
		if i/c.banksPerGroup == group {
			gap = int64(c.t.TCCDL)
		} else {
			gap = int64(c.t.TCCDS)
		}
		ob.nextRD = max64(ob.nextRD, now+gap)
		ob.nextWR = max64(ob.nextWR, now+gap)
	}
}

func (c *refChannel) occupyBus(start, end int64, rank int) {
	c.stats.DataBusBusyCycles += uint64(end - start)
	c.dataBusFreeAt = end
	c.lastBurstRank = rank
}

func (c *refChannel) Clone() *refChannel {
	n := new(refChannel)
	*n = *c
	n.stats = c.stats.Clone()
	n.rank = append([]rankState(nil), c.rank...)
	n.banks = append([]refBank(nil), c.banks...)
	return n
}

func (c *refChannel) AdoptState(src *refChannel) {
	c.stats.AdoptState(src.stats)
	c.rank = append([]rankState(nil), src.rank...)
	c.banks = append([]refBank(nil), src.banks...)
	c.dataBusFreeAt = src.dataBusFreeAt
	c.lastBurstRank = src.lastBurstRank
	c.lastCmdCycle = src.lastCmdCycle
}

// ---------------------------------------------------------------------------
// Differential oracle: shared horizons vs per-bank fan-out.
// ---------------------------------------------------------------------------

// channelPair drives a channel and the reference with the same commands.
type channelPair struct {
	t   *testing.T
	got *Channel
	ref *refChannel
	cmp int // EarliestIssueAt comparisons made
}

// check compares EarliestIssueAt for every (command, bank) at now.
func (p *channelPair) check(now int64) {
	p.t.Helper()
	for bi := range p.got.banks {
		for cmd := CmdACT; cmd <= CmdREF; cmd++ {
			g, r := p.got.EarliestIssueAt(cmd, bi, now), p.ref.EarliestIssueAt(cmd, bi, now)
			if g != r {
				p.t.Fatalf("cycle %d: EarliestIssueAt(%v, bank %d) = %d, reference %d\n got: %s",
					now, cmd, bi, g, r, p.got.DebugState())
			}
			p.cmp++
		}
	}
	if k1, k2 := p.got.Counters(), p.ref.stats.Counters(); !reflect.DeepEqual(k1, k2) {
		p.t.Fatalf("cycle %d: counters %+v, reference %+v", now, k1, k2)
	}
}

// issue issues cmd on both channels and compares the return values.
func (p *channelPair) issue(cmd Command, loc Loc, now int64) {
	p.t.Helper()
	g, r := p.got.Issue(cmd, loc, now), p.ref.Issue(cmd, loc, now)
	if g != r {
		p.t.Fatalf("cycle %d: Issue(%v, %+v) = %d, reference %d", now, cmd, loc, g, r)
	}
}

// step picks a random bank and issues the next command a request for a
// random row of it would need, or now and then refreshes the bank's rank:
// it precharges the rank's open banks one by one, then issues REF. It
// returns the cycle after the last issue. Every cycle from now up to each
// issue is checked.
func (p *channelPair) step(rng *rand.Rand, now int64) int64 {
	p.t.Helper()
	cfg := p.got.cfg
	loc := Loc{
		Rank:      rng.IntN(cfg.Ranks),
		BankGroup: rng.IntN(cfg.BankGroups),
		Bank:      rng.IntN(p.got.banksPerGroup),
		Row:       uint32(rng.IntN(2)),
	}
	if rng.IntN(50) == 0 {
		for bi := loc.Rank * cfg.Banks; bi < (loc.Rank+1)*cfg.Banks; bi++ {
			if _, open := p.got.OpenRowAt(bi); open {
				o := Loc{Rank: loc.Rank, BankGroup: bi % cfg.Banks / p.got.banksPerGroup, Bank: bi % p.got.banksPerGroup}
				now = p.advance(CmdPRE, o, now)
			}
		}
		return p.advance(CmdREF, loc, now)
	}
	cmd := CmdACT
	switch row, open := p.got.OpenRow(loc); {
	case open && row == loc.Row:
		cmd = CmdRD
		if rng.IntN(3) == 0 {
			cmd = CmdWR
		}
	case open:
		cmd = CmdPRE
	}
	return p.advance(cmd, loc, now)
}

// advance checks every cycle from now to cmd's earliest issue cycle,
// issues it there on both channels, and returns the next cycle.
func (p *channelPair) advance(cmd Command, loc Loc, now int64) int64 {
	p.t.Helper()
	at := p.got.EarliestIssue(cmd, loc, now)
	for c := now; c <= at; c++ {
		p.check(c)
	}
	p.issue(cmd, loc, at)
	return at + 1
}

// TestChannelMatchesReference drives the channel and the former per-bank
// fan-out channel with identical seeded legal command streams on DDR4 and
// DDR5 geometries with 1, 2 and 4 ranks, and compares EarliestIssueAt for
// every (command, bank) at every cycle, each Issue's return value, and
// the counters. Midway, both are cloned and the clones continue; then a
// channel with a different write burst adopts each clone's state, as an
// eWCRC fork does, and the adopters continue.
func TestChannelMatchesReference(t *testing.T) {
	steps := 2400
	if testing.Short() {
		steps = 600
	}
	geoms := []struct {
		name string
		dram config.DRAM
	}{
		{"ddr4", config.Table1(config.ModeUnprotected).DRAM},
		{"ddr5", config.Table1DDR5(config.ModeUnprotected).DRAM},
	}
	seed := uint64(1)
	for _, g := range geoms {
		for _, ranks := range []int{1, 2, 4} {
			seed++
			cfg := g.dram
			cfg.Ranks = ranks
			cfg.RefreshEnabled = true
			t.Run(fmt.Sprintf("%s/ranks%d", g.name, ranks), func(t *testing.T) {
				diffChannels(t, cfg, seed, steps)
			})
		}
	}
}

func diffChannels(t *testing.T, cfg config.DRAM, seed uint64, steps int) {
	got, err := NewChannel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := &channelPair{t: t, got: got, ref: newRefChannel(t, cfg)}
	rng := rand.New(rand.NewPCG(seed, 0xd7a))
	var now int64
	for i := 0; i < steps/3; i++ {
		now = p.step(rng, now)
	}
	// Fork: the originals run a stream of their own, which a clone sharing
	// state with its original would see; then the clones continue.
	clone := &channelPair{t: t, got: p.got.Clone(), ref: p.ref.Clone()}
	for i, end := 0, now; i < 50; i++ {
		end = p.step(rng, end)
	}
	p = clone
	for i := 0; i < steps/3; i++ {
		now = p.step(rng, now)
	}
	// Adopt across a different write burst, as an eWCRC fork does.
	adopt := cfg
	adopt.WriteBurstBeats = cfg.ReadBurstBeats + 2
	if adopt.WriteBurstBeats == cfg.WriteBurstBeats {
		adopt.WriteBurstBeats = cfg.ReadBurstBeats
	}
	ng, err := NewChannel(adopt)
	if err != nil {
		t.Fatal(err)
	}
	nr := newRefChannel(t, adopt)
	ng.AdoptState(p.got)
	nr.AdoptState(p.ref)
	p.got, p.ref = ng, nr
	p.check(now)
	for i := 0; i < steps/3; i++ {
		now = p.step(rng, now)
	}
	k := p.got.Counters()
	if k.RD == 0 || k.WR == 0 || k.REF == 0 || k.PRE == 0 {
		t.Fatalf("stream missed a command kind: %+v", k)
	}
	t.Logf("%d cycles, %d comparisons, %+v", now, p.cmp, k)
}
