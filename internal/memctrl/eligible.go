package memctrl

import "math/bits"

// horizonSet is one eligibility mask over a channel's banks, indexed by
// dram.Channel.BankIndex: bank b is eligible from cycle at[b] on. Only a
// command to bank b moves at[b] (set), and advance moves the clock. A
// pending bank (at[b] still ahead) is visited only when the earliest
// pending horizon, next, has come, so a cycle in which no horizon runs out
// costs one comparison. The invariant: bit b of ok is set iff at[b] <= now,
// and next is at most every pending bank's horizon.
type horizonSet struct {
	at   []int64
	ok   []uint64
	tail uint64 // the banks' bits in ok's last word
	next int64
	now  int64 // the cycle ok is current for
}

// newHorizonSet returns a set of nbanks banks, each eligible from cycle 0,
// as of cycle 0.
func newHorizonSet(nbanks int) horizonSet {
	h := horizonSet{
		at:   make([]int64, nbanks),
		ok:   make([]uint64, maskWords(nbanks)),
		tail: ^uint64(0) >> uint((64-nbanks%64)%64),
		next: never,
	}
	for b := range nbanks {
		setBit(h.ok, b)
	}
	return h
}

// never is a horizon no clock reaches.
const never = int64(1) << 62

// set moves bank b's horizon to at.
func (h *horizonSet) set(b int, at int64) {
	h.at[b] = at
	if at <= h.now {
		setBit(h.ok, b)
		return
	}
	clearBit(h.ok, b)
	h.next = min(h.next, at)
}

// advance brings ok up to cycle now. A clock that runs backwards, as a
// caller restarting its cycle count, re-files every bank.
func (h *horizonSet) advance(now int64) {
	if now == h.now || (now > h.now && now < h.next) {
		h.now = now
		return
	}
	all := now < h.now
	h.now = now
	next := never
	for w, word := range h.ok {
		pend := ^word
		if all {
			pend = ^uint64(0)
		}
		if w == len(h.ok)-1 {
			pend &= h.tail
		}
		for ; pend != 0; pend &= pend - 1 {
			i := bits.TrailingZeros64(pend)
			if at := h.at[w<<6|i]; at <= now {
				h.ok[w] |= 1 << uint(i)
			} else {
				h.ok[w] &^= 1 << uint(i)
				next = min(next, at)
			}
		}
	}
	h.next = next
}
