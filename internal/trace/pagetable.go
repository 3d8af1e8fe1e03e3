package trace

import "sync"

// PageTable is a generator's random virtual-to-physical page permutation
// (Section IV-A: virtual pages scatter over the physical footprint,
// fragmenting streams at page boundaries). It is immutable once built:
// generators only read it, in translate. So a generator's clones share
// its table rather than copying it, and generators built through one
// Tables set share the tables they have in common. At one grid seed that
// is every workload with the same footprint, because per-core seeds do
// not depend on the workload.
//
// The one table that is not immutable is RunOps's, built in a buffer the
// caller rewrites for its next stream; it is never in a set, and the
// generator reading it does not outlive the RunOps call.
type PageTable struct {
	perm []uint32
	// after is the generator RNG state once the shuffle has drawn from
	// it. A generator built from a shared table resumes its stream here,
	// so its addresses are bit-identical to a fresh build's.
	after rng
}

// tableKey identifies a permutation: its page count and the RNG state
// the shuffle starts from.
type tableKey struct {
	pages uint64
	state uint64
}

// Tables is a set of page tables that the generators built through it
// share. It holds every table it has built for as long as the set itself
// is reachable; how long that is belongs to its owner. The harness
// scheduler keeps one set per table class for as long as it holds a
// snapshot group of that class, so a sweep shuffles each measured table
// once. A nil *Tables shares nothing: each generator built through it
// shuffles a private table, as NewGenerator does.
type Tables struct {
	mu sync.Mutex
	m  map[tableKey]*PageTable
	// builds counts the tables shuffled into the set: one per key.
	builds int
}

// NewGenerator is the package-level NewGenerator with the page table
// taken from t, shuffled into it on first use.
func (t *Tables) NewGenerator(p Profile, base, seed uint64) (*Generator, error) {
	if t == nil {
		return NewGenerator(p, base, seed)
	}
	return newGenerator(p, base, seed, t.table)
}

// Builds returns how many tables have been shuffled into t.
func (t *Tables) Builds() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.builds
}

// table returns the permutation of pages pages shuffled from r, building
// it on first use. The build runs under the set's lock, so concurrent
// warmups that need the same table shuffle it once.
func (t *Tables) table(pages uint64, r rng) *PageTable {
	k := tableKey{pages: pages, state: r.state}
	t.mu.Lock()
	defer t.mu.Unlock()
	if tbl := t.m[k]; tbl != nil {
		return tbl
	}
	if t.m == nil {
		t.m = make(map[tableKey]*PageTable)
	}
	tbl := buildPageTable(nil, pages, r)
	t.m[k] = tbl
	t.builds++
	return tbl
}

// buildPageTable shuffles the identity permutation of pages pages with r
// (Fisher-Yates) and records where r ends. It builds in buf's storage when
// buf has room for pages entries and allocates otherwise; every entry is
// rewritten, so whatever buf held before leaves no trace in the result.
func buildPageTable(buf []uint32, pages uint64, r rng) *PageTable {
	var perm []uint32
	if uint64(cap(buf)) >= pages {
		perm = buf[:pages]
	} else {
		perm = make([]uint32, pages)
	}
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return &PageTable{perm: perm, after: r}
}
