// Package secmem implements the performance models of every memory-
// protection configuration the paper evaluates (Section IV-B): the
// integrity-tree baseline (any arity, counter or hash tree), SecDDR with
// counter-mode or AES-XTS encryption, the encrypt-only upper bounds, and an
// InvisiMem-style authenticated channel.
//
// The engine sits between the LLC and the memory controller. Each LLC miss
// expands into a data access plus the mode's metadata accesses (encryption
// counters, integrity-tree levels), filtered through the shared 128KB
// metadata cache; each LLC writeback additionally dirties the metadata it
// touches. Crypto latencies follow the paper's rules: counter-mode OTPs are
// pre-computed on metadata-cache hits (hiding decryption), AES-XTS pays the
// full latency on every access, integrity verification is parallel across
// tree levels, and the authenticated channel adds two MAC latencies to the
// read critical path.
package secmem

import (
	"fmt"

	"secddr/internal/cache"
	"secddr/internal/config"
	"secddr/internal/dram"
	"secddr/internal/integrity"
	"secddr/internal/memctrl"
)

// MetaBase is the physical base address of the security-metadata region
// (counters, tree nodes, MAC blocks). Workload footprints must stay below
// it.
const MetaBase = uint64(12) << 30

// ReadDone reports a finished protected read.
type ReadDone struct {
	Token    uint64
	ReadyMem int64 // memory cycle at which the line is usable by the core
}

type reqKind uint8

const (
	kindData reqKind = iota + 1
	kindMeta
)

// txn is one protected read in flight: the data access plus the metadata
// fetches it waits on. Transactions live in the engine's slab (Engine.txns)
// and are named by slot index, so the request path allocates nothing once
// the slab has grown to the workload's peak in-flight count.
type txn struct {
	token       uint64
	dataT       int64
	metaT       int64
	outstanding int32 // pending and backlog entries naming this slot
	metaMiss    bool
	finished    bool
}

// noTxn is the slot index of a request no transaction waits on:
// fire-and-forget writes and metadata read-modify-write fetches.
const noTxn int32 = -1

type backlogEntry struct {
	addr  uint64
	t     int32 // txn slot, or noTxn
	kind  reqKind
	write bool
}

type pendingRef struct {
	t    int32 // txn slot, or noTxn
	kind reqKind
}

// chanReq identifies one in-flight controller read: request IDs are
// per-controller counters, so multi-channel configurations need the channel
// index to disambiguate them.
type chanReq struct {
	ch int
	id uint64
}

// Engine is the security-mode-aware memory front end.
type Engine struct {
	cfg       config.Config
	ctls      []*memctrl.Controller // one per DRAM channel
	mapper    *dram.AddressMapper   // routes addresses to channels
	metaCache *cache.Cache
	tree      *integrity.Tree // tree or counter layout; nil for XTS non-tree

	cryptoMem int64 // crypto latency converted to memory cycles
	readAdder int64 // fixed addition to the data arrival (XTS, InvisiMem)
	hasWalk   bool  // counter and/or tree metadata accesses exist
	walkBuf   []uint64
	// primeSeen dedupes PrimeMeta by counter-leaf index: one walk per
	// leaf group per priming pass, tracked as a bitmap over the tree's
	// leaf level (a map here costs more than the walks it skips). Only
	// ever populated during resume (PrimeMeta's sole caller), dead
	// weight afterwards. leafShift caches the tree's leaf shift so the
	// inlined PrimeMeta fast path indexes the bitmap without a divide;
	// it is valid whenever primeSeen is non-nil.
	primeSeen []uint64
	leafShift uint8

	// txns is the transaction slab and freeTxns its free slot indexes.
	// A slot is taken by StartRead and returned by maybeFinish once its
	// outstanding count reaches zero; starting is the slot StartRead is
	// still issuing, which a forwarded data arrival may finish but must
	// not free before the metadata walk goes out.
	txns     []txn
	freeTxns []int32
	starting int32

	pending map[chanReq]pendingRef
	backlog []backlogEntry
	ready   readyHeap
	nextTok uint64
	outBuf  []ReadDone // reused backing array for Tick's return value

	// Stats.
	ReadsStarted     uint64
	WritesStarted    uint64
	MetaReads        uint64 // metadata fetches from memory
	MetaWritebacks   uint64 // dirty metadata evictions
	ForwardedArrival uint64
	// CryptoBusyCycles accumulates, per finished read, the memory cycles
	// between the raw data burst arriving and the decrypted line becoming
	// usable — the decrypt/verify latency the crypto engine adds on the
	// read path (zero in unprotected mode). Overlapping reads both count
	// their full exposure, so this measures crypto-shadow work, not
	// exclusive engine wall time.
	CryptoBusyCycles uint64
}

// NewEngine wires a fresh controller, metadata cache, and tree for cfg.
func NewEngine(cfg config.Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mapper, err := dram.NewAddressMapper(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	ctls := make([]*memctrl.Controller, cfg.DRAM.Channels)
	for i := range ctls {
		if ctls[i], err = memctrl.New(cfg.DRAM); err != nil {
			return nil, err
		}
	}
	e := &Engine{
		cfg:      cfg,
		ctls:     ctls,
		mapper:   mapper,
		starting: noTxn,
		pending:  make(map[chanReq]pendingRef),
	}
	// Crypto latency in memory cycles, preserving nanoseconds.
	c := cfg.Security.CryptoLatency
	e.cryptoMem = int64((c*cfg.DRAM.ClockMHz + cfg.Core.ClockMHz - 1) / cfg.Core.ClockMHz)

	sec := cfg.Security
	needMeta := sec.Encryption == config.EncCounterMode ||
		sec.Mode == config.ModeIntegrityTree
	if needMeta {
		e.metaCache, err = cache.New(sec.MetadataCache)
		if err != nil {
			return nil, err
		}
		perLeaf := sec.CountersPerLine
		arity := sec.TreeArity
		if sec.Mode != config.ModeIntegrityTree {
			// Flat counters: a single-level "tree" (walk = counter line only).
			arity = 2
		}
		if sec.HashTree {
			perLeaf = 8 // 8 MACs of 8B per 64B line
		}
		e.tree, err = integrity.New(cfg.DRAM.CapacityBytes, cfg.LLC.LineBytes, perLeaf, arity, MetaBase)
		if err != nil {
			return nil, err
		}
		e.hasWalk = true
	}

	switch sec.Mode {
	case config.ModeInvisiMem:
		e.readAdder = 2 * e.cryptoMem
	default:
		if sec.Encryption == config.EncXTS {
			e.readAdder = e.cryptoMem
		}
	}
	return e, nil
}

// Controllers exposes every per-channel memory controller in channel order.
func (e *Engine) Controllers() []*memctrl.Controller { return e.ctls }

// SetEventDriven enables quiet-span scan skipping in every channel
// controller (see memctrl.Controller.SetEventDriven). Off by default so
// pre-existing callers keep the original per-cycle behaviour.
func (e *Engine) SetEventDriven(v bool) {
	for _, ctl := range e.ctls {
		ctl.SetEventDriven(v)
	}
}

// channelOf routes a physical address to its memory channel.
func (e *Engine) channelOf(addr uint64) int {
	ch, _ := e.mapper.Map(addr)
	return ch
}

// MetaCache exposes the metadata cache (nil for XTS-without-tree modes).
func (e *Engine) MetaCache() *cache.Cache { return e.metaCache }

// AdoptMetaCache replaces the engine's metadata cache with c, which must
// have the geometry the engine's configuration describes. Resume uses it to
// install an already-primed cache cloned from a warmed snapshot's memo
// instead of re-running the priming pass over the resident LLC.
func (e *Engine) AdoptMetaCache(c *cache.Cache) { e.metaCache = c }

// CryptoMemCycles returns the crypto latency in memory-clock cycles.
func (e *Engine) CryptoMemCycles() int64 { return e.cryptoMem }

// StartRead begins a protected read of addr and returns its token. The
// caller learns completion from Tick.
func (e *Engine) StartRead(addr uint64, now int64) uint64 {
	e.nextTok++
	e.ReadsStarted++
	var t int32
	if n := len(e.freeTxns); n > 0 {
		t = e.freeTxns[n-1]
		e.freeTxns = e.freeTxns[:n-1]
	} else {
		t = int32(len(e.txns))
		e.txns = append(e.txns, txn{})
	}
	e.txns[t] = txn{token: e.nextTok, dataT: -1, metaT: -1}
	e.starting = t
	e.issue(t, addr, kindData, false, now)
	if e.hasWalk {
		e.walkReads(t, addr, now)
	}
	e.starting = noTxn
	e.maybeFinish(t, now)
	return e.nextTok
}

// StartWrite begins a protected write-back of addr (fire and forget from
// the core's perspective; the traffic still contends for the channel).
func (e *Engine) StartWrite(addr uint64, now int64) {
	e.WritesStarted++
	e.issue(noTxn, addr, kindData, true, now)
	if e.hasWalk {
		e.walkWrite(addr, now)
	}
}

// walkReads probes the metadata walk for a read: levels are trusted once a
// cached ancestor is found; everything below is fetched in parallel
// (the paper allows parallel tree-level verification).
func (e *Engine) walkReads(t int32, addr uint64, now int64) {
	walk := e.walkAddrs(addr)
	for _, a := range walk {
		if e.metaCache.Access(a, false) {
			break // trusted cached ancestor
		}
		e.fillMeta(a, false, now)
		e.txns[t].metaMiss = true
		e.issue(t, a, kindMeta, false, now)
	}
}

// walkWrite updates the metadata walk for a write: each level up to the
// first cached ancestor is fetched (read-modify-write) and dirtied.
func (e *Engine) walkWrite(addr uint64, now int64) {
	walk := e.walkAddrs(addr)
	for _, a := range walk {
		if e.metaCache.Access(a, true) {
			break // cached ancestor updated in place
		}
		e.fillMeta(a, true, now)
		// The fetch itself: fire-and-forget read (RMW latency is off the
		// core's critical path, but the traffic is real).
		e.issue(noTxn, a, kindMeta, false, now)
	}
}

// FuncAccess applies the metadata-walk effect of one data access to the
// metadata cache without generating memory traffic: the same
// walk-until-cached-ancestor probe as walkReads/walkWrite, with misses
// installed (and dirtied, for writes) via Fill. The sampled simulation
// mode calls it during functional fast-forward so the metadata cache's
// contents and recency track the skipped span; victim writebacks and
// fetches carry no timing there, so no requests are issued and the
// traffic counters (MetaReads, MetaWritebacks) are untouched — only the
// cache's own access/miss counters move, as any cache probe does.
func (e *Engine) FuncAccess(addr uint64, write bool) {
	if !e.hasWalk {
		return
	}
	for _, a := range e.walkAddrs(addr) {
		if e.metaCache.Access(a, write) {
			break // cached ancestor: walk stops here, as in detailed mode
		}
		e.metaCache.Fill(a, write)
	}
}

// walkAddrs returns the metadata walk for addr. For flat-counter modes the
// tree has a single stored level (the counter lines); for tree modes the
// full leaf-to-root path.
func (e *Engine) walkAddrs(addr uint64) []uint64 {
	e.walkBuf = e.walkBuf[:0]
	if e.cfg.Security.Mode == config.ModeIntegrityTree {
		e.walkBuf = e.tree.WalkAddrs(e.walkBuf, addr)
		return e.walkBuf
	}
	// Counter access only.
	e.walkBuf = append(e.walkBuf, e.tree.LeafAddr(addr))
	return e.walkBuf
}

// fillMeta installs a metadata line, writing back a dirty victim.
func (e *Engine) fillMeta(a uint64, dirty bool, now int64) {
	victim, has := e.metaCache.Fill(a, dirty)
	if has && victim.Dirty {
		e.MetaWritebacks++
		e.issue(noTxn, victim.Addr, kindMeta, true, now)
	}
}

// issue sends one memory request, falling back to the backlog on queue-full.
func (e *Engine) issue(t int32, addr uint64, kind reqKind, write bool, now int64) {
	if t != noTxn {
		e.txns[t].outstanding++
	}
	if kind == kindMeta && !write {
		e.MetaReads++
	}
	if !e.tryIssue(t, addr, kind, write, now) {
		e.backlog = append(e.backlog, backlogEntry{addr: addr, t: t, kind: kind, write: write})
	}
}

// tryIssue attempts the controller enqueue; returns false when full.
func (e *Engine) tryIssue(t int32, addr uint64, kind reqKind, write bool, now int64) bool {
	ch := e.channelOf(addr)
	ctl := e.ctls[ch]
	if write {
		if err := ctl.EnqueueWrite(addr, now); err != nil {
			return false
		}
		if t != noTxn {
			e.complete(t, kind, now)
		}
		return true
	}
	id, forwarded, err := ctl.EnqueueRead(addr, now)
	if err != nil {
		return false
	}
	if forwarded {
		e.ForwardedArrival++
		if t != noTxn {
			e.complete(t, kind, now)
		}
		return true
	}
	e.pending[chanReq{ch, id}] = pendingRef{t: t, kind: kind}
	return true
}

// complete records one arrival for a transaction.
func (e *Engine) complete(i int32, kind reqKind, at int64) {
	t := &e.txns[i]
	switch kind {
	case kindData:
		t.dataT = at
	case kindMeta:
		if at > t.metaT {
			t.metaT = at
		}
	}
	t.outstanding--
	e.maybeFinish(i, at)
}

// maybeFinish computes the ready time once all arrivals are in and frees
// the slot: at zero outstanding no pending or backlog entry names it. A
// read whose data was forwarded finishes before StartRead issues its walk;
// the walk's fetches then hold the finished slot until they complete.
func (e *Engine) maybeFinish(i int32, now int64) {
	t := &e.txns[i]
	if t.outstanding != 0 {
		return
	}
	if !t.finished {
		e.finish(t, now)
	}
	if i != e.starting {
		e.freeTxns = append(e.freeTxns, i)
	}
}

// finish pushes a read's completion at its crypto-ready time.
func (e *Engine) finish(t *txn, now int64) {
	t.finished = true
	ready := t.dataT + e.readAdder
	if t.metaMiss {
		// OTP generation / verification completes cryptoMem after the last
		// metadata arrival; no speculative use of data.
		if v := t.metaT + e.cryptoMem; v > ready {
			ready = v
		}
	}
	if ready < now {
		ready = now
	}
	if ready > t.dataT {
		e.CryptoBusyCycles += uint64(ready - t.dataT)
	}
	e.ready.push(ReadDone{Token: t.token, ReadyMem: ready})
}

// Tick advances one memory cycle: drains the backlog, ticks every channel's
// controller in channel order, routes completions, and returns reads that
// became usable.
func (e *Engine) Tick(now int64) []ReadDone {
	// Drain backlog in order, keeping its backing array.
	if len(e.backlog) > 0 {
		k := 0
		for _, b := range e.backlog {
			if !e.tryIssue(b.t, b.addr, b.kind, b.write, now) {
				break
			}
			k++
		}
		if k > 0 {
			e.backlog = e.backlog[:copy(e.backlog, e.backlog[k:])]
		}
	}
	for ch, ctl := range e.ctls {
		for _, comp := range ctl.Tick(now) {
			ref, ok := e.pending[chanReq{ch, comp.ID}]
			if !ok {
				continue
			}
			delete(e.pending, chanReq{ch, comp.ID})
			if ref.t != noTxn {
				e.complete(ref.t, ref.kind, comp.Done)
			}
		}
	}
	out := e.outBuf[:0]
	for len(e.ready) > 0 && e.ready[0].ReadyMem <= now {
		out = append(out, e.ready.pop())
	}
	e.outBuf = out
	return out
}

// NextEvent returns the earliest memory cycle strictly after now at which
// Tick could change state: the minimum of every channel controller's next
// event and the earliest pending crypto-ready completion. A backlog whose
// head is still rejected by its target queue needs no term of its own — it
// can only start draining after that queue issues a command, and the issue
// cycle is already part of the controller's bound — but once the head WOULD
// be accepted (a slot freed, or a coalescible write appeared) the drain
// happens on the very next tick.
func (e *Engine) NextEvent(now int64) int64 {
	if len(e.backlog) > 0 {
		b := e.backlog[0]
		if e.ctls[e.channelOf(b.addr)].CanAccept(b.addr, b.write) {
			return now + 1
		}
	}
	next := int64(1) << 62
	for _, ctl := range e.ctls {
		if t := ctl.NextEvent(now); t < next {
			next = t
		}
	}
	if len(e.ready) > 0 && e.ready[0].ReadyMem < next {
		next = e.ready[0].ReadyMem
	}
	if next <= now {
		next = now + 1
	}
	return next
}

// BacklogLen returns the number of requests waiting behind full controller
// queues.
func (e *Engine) BacklogLen() int { return len(e.backlog) }

// Idle reports whether all queues, backlogs, and pending work are drained.
func (e *Engine) Idle() bool {
	if len(e.backlog) != 0 || len(e.pending) != 0 || len(e.ready) != 0 {
		return false
	}
	for _, ctl := range e.ctls {
		if !ctl.Idle() {
			return false
		}
	}
	return true
}

// IdleExceptWrites reports whether everything except queued controller
// writes has drained: empty backlog, no in-flight transactions, no
// undelivered completions, and every controller reads-idle. See
// memctrl.Controller.ReadsIdle for why queued writes may safely persist
// across a clock jump.
func (e *Engine) IdleExceptWrites() bool {
	if len(e.backlog) != 0 || len(e.pending) != 0 || len(e.ready) != 0 {
		return false
	}
	for _, ctl := range e.ctls {
		if !ctl.ReadsIdle() {
			return false
		}
	}
	return true
}

// String summarizes engine state.
func (e *Engine) String() string {
	return fmt.Sprintf("engine{mode=%v backlog=%d pending=%d}",
		e.cfg.Security.Mode, len(e.backlog), len(e.pending))
}

// readyHeap is a min-heap of completions on ReadyMem. push and pop sift
// exactly as container/heap does, so equal ready times pop in the same
// order, without boxing each ReadDone into an interface.
type readyHeap []ReadDone

func (h *readyHeap) push(x ReadDone) {
	*h = append(*h, x)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if s[j].ReadyMem >= s[i].ReadyMem {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *readyHeap) pop() ReadDone {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && s[r].ReadyMem < s[j].ReadyMem {
			j = r
		}
		if s[j].ReadyMem >= s[i].ReadyMem {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}
