package dram

// Clone returns a deep copy of the channel: configuration, per-bank row
// and timing state, rank refresh/tFAW state, the shared horizons, bus
// occupancy, and statistics.
func (c *Channel) Clone() *Channel {
	n := new(Channel)
	*n = *c
	n.rank = append([]rankState(nil), c.rank...)
	n.banks = append([]bankState(nil), c.banks...)
	n.groups = append([]groupState(nil), c.groups...)
	n.bankCols = append([]uint64(nil), c.bankCols...)
	return n
}

// AdoptState grafts a copy of src's dynamic DRAM state — everything Clone
// copies — onto c, which keeps its own configuration and derived burst
// lengths. Every timing horizon is an absolute memory-clock cycle, so the
// grafted state stays valid under a configuration that differs only in
// fields outside the channel geometry (the write burst length, for eWCRC
// modes). The two channels must have identical organization: same ranks,
// bank groups, and banks per group.
func (c *Channel) AdoptState(src *Channel) {
	cfg, t, perGroup, readBL, writeBL := c.cfg, c.t, c.banksPerGroup, c.readBL, c.writeBL
	*c = *src.Clone()
	c.cfg, c.t, c.banksPerGroup, c.readBL, c.writeBL = cfg, t, perGroup, readBL, writeBL
}
