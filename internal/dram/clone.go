package dram

// Clone returns a deep copy of the channel: configuration, per-bank row
// and timing state, rank refresh/tFAW state, the shared column horizons,
// bus occupancy, and statistics.
func (c *Channel) Clone() *Channel {
	n := new(Channel)
	*n = *c
	n.rank = append([]rankState(nil), c.rank...)
	n.banks = append([]bankState(nil), c.banks...)
	n.groups = append([]groupState(nil), c.groups...)
	n.bankCols = append([]uint64(nil), c.bankCols...)
	return n
}

// AdoptState grafts src's dynamic DRAM state — per-bank open rows and
// command-timing horizons, rank refresh and tFAW activation windows, the
// shared column horizons, data bus occupancy, and the statistics
// counters — onto c, which keeps its own
// configuration and derived burst lengths. Every timing horizon is an
// absolute memory-clock cycle, so the grafted state stays valid under a
// configuration that differs only in fields outside the channel geometry
// (the write burst length, for eWCRC modes). The two channels must have
// identical organization: same ranks, bank groups, and banks per group.
func (c *Channel) AdoptState(src *Channel) {
	c.rank = append([]rankState(nil), src.rank...)
	c.banks = append([]bankState(nil), src.banks...)
	c.groups = append([]groupState(nil), src.groups...)
	c.colAny = src.colAny
	c.wrAfterRD = src.wrAfterRD
	c.dataBusFreeAt = src.dataBusFreeAt
	c.lastBurstRank = src.lastBurstRank
	c.lastCmdCycle = src.lastCmdCycle
	c.NumACT = src.NumACT
	c.NumPRE = src.NumPRE
	c.NumRD = src.NumRD
	c.NumWR = src.NumWR
	c.NumREF = src.NumREF
	c.RowHits = src.RowHits
	c.RowMisses = src.RowMisses
	c.RowConflicts = src.RowConflicts
	c.DataBusBusyCycles = src.DataBusBusyCycles
	c.RefreshShadowCycles = src.RefreshShadowCycles
	c.bankCols = append([]uint64(nil), src.bankCols...)
}
