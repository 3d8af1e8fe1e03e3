package secmem

// PrimeMeta installs the metadata walk for a data line address into the
// metadata cache as clean fills, without touching access statistics. A
// resumed (or forked) run calls it for every LLC-resident line so the
// metadata cache starts consistent with the data the measured region will
// re-reference — the functional analogue of the LLC warmup.
//
// The walk is a pure function of the data line's counter-leaf index
// (integrity.Tree.WalkAddrs derives every level from lineIdx/perLeaf), so
// all lines sharing a leaf produce the identical address list. Priming is
// an idempotent ensure-present sweep, so each leaf group is walked once
// and later lines from the same group are skipped (a leaf-level bitmap;
// see primeSeen) — on a warmed LLC that is a ~perLeaf-fold cut in
// probe/fill work, which dominates fork cost in wide sweeps.
// The split keeps the already-primed path small enough to inline into the
// resident-line visit loop: for a warmed multi-megabyte LLC that path runs
// tens of thousands of times per fork, and per-call overhead alone was
// showing up in fork profiles. The fast path only fires once primeMetaSlow
// has set up the memo (which caches the tree's leaf shift on the engine).
func (e *Engine) PrimeMeta(addr uint64) {
	if e.primeSeen != nil {
		idx := addr >> e.leafShift
		if e.primeSeen[idx>>6]&(1<<(idx&63)) != 0 {
			return
		}
	}
	e.primeMetaSlow(addr)
}

// primeMetaSlow covers every non-hot case: no metadata at all, the first
// call of a priming pass (allocate the memo, or run memo-less if the tree
// geometry admits no leaf shift), and the first visit of each leaf group
// (mark it seen and ensure its walk is metadata-resident).
func (e *Engine) primeMetaSlow(addr uint64) {
	if !e.hasWalk {
		return
	}
	if e.primeSeen == nil {
		if s, ok := e.tree.LeafShift(); ok {
			e.leafShift = uint8(s)
			e.primeSeen = make([]uint64, (e.tree.NodeCount(0)+63)/64)
		}
	}
	if e.primeSeen != nil {
		idx := addr >> e.leafShift
		e.primeSeen[idx>>6] |= 1 << (idx & 63)
	}
	for _, a := range e.walkAddrs(addr) {
		if !e.metaCache.Probe(a) {
			e.metaCache.Fill(a, false)
		}
	}
}
