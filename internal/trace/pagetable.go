package trace

import (
	"runtime"
	"sync"
	"weak"
)

// PageTable is a generator's random virtual-to-physical page permutation
// (Section IV-A: virtual pages scatter over the physical footprint,
// fragmenting streams at page boundaries). It is immutable once built:
// generators only read it, in translate. So a generator's clones share
// its table rather than copying it, and generators that would build the
// same permutation share one table through a process-wide memo. At one
// grid seed that is every workload with the same footprint, because
// per-core seeds do not depend on the workload.
//
// The one table that is not immutable is RunOps's, built in a buffer the
// caller rewrites for its next stream; it is never in the memo, and the
// generator reading it does not outlive the RunOps call.
type PageTable struct {
	perm []uint32
	// after is the generator RNG state once the shuffle has drawn from
	// it. A generator built from a memoized table resumes its stream
	// here, so its addresses are bit-identical to a fresh build's.
	after rng
}

// tableKey identifies a permutation: its page count and the RNG state
// the shuffle starts from.
type tableKey struct {
	pages uint64
	state uint64
}

// tables memoizes page tables by key. It holds them weakly: a table lives
// as long as some generator (or a warmed snapshot's clone of one) uses
// it, and a cleanup drops its entry once it is collected, so the memo
// never keeps a sweep's tables alive after the sweep has moved on.
var tables = struct {
	sync.Mutex
	m map[tableKey]weak.Pointer[PageTable]
}{m: make(map[tableKey]weak.Pointer[PageTable])}

// pageTableFor returns the permutation of pages pages shuffled from r,
// building it on a memo miss. The build runs under the memo lock, so
// concurrent warmups that need the same table shuffle it once.
func pageTableFor(pages uint64, r rng) *PageTable {
	k := tableKey{pages: pages, state: r.state}
	tables.Lock()
	defer tables.Unlock()
	if t := tables.m[k].Value(); t != nil {
		return t
	}
	t := buildPageTable(nil, pages, r)
	tables.m[k] = weak.Make(t)
	runtime.AddCleanup(t, dropTable, k)
	return t
}

// dropTable removes k's memo entry once its table has been collected. A
// later build may already have replaced the entry with a live table;
// that one stays.
func dropTable(k tableKey) {
	tables.Lock()
	defer tables.Unlock()
	if tables.m[k].Value() == nil {
		delete(tables.m, k)
	}
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
