package secmem

import (
	"math/rand/v2"
	"testing"

	"secddr/internal/config"
)

// engineOp is one request of a recorded engine stream: a read or a write
// of line addr, offered gap memory cycles after the previous request.
type engineOp struct {
	addr  uint64
	gap   int64
	write bool
}

// recordStream returns a seeded request stream over a 256MB footprint:
// runs of sequential lines (counter-line and tree-node reuse) from random
// pages, one request in four a write, with up to 8 idle cycles between
// requests.
func recordStream(n int) []engineOp {
	rng := rand.New(rand.NewPCG(42, 25))
	ops := make([]engineOp, 0, n)
	for len(ops) < n {
		page := rng.Uint64N(256<<20>>12) << 12
		for run := 1 + rng.IntN(16); run > 0 && len(ops) < n; run-- {
			ops = append(ops, engineOp{
				addr:  page + uint64(rng.IntN(64))*64,
				gap:   int64(rng.IntN(9)),
				write: rng.IntN(4) == 0,
			})
		}
	}
	return ops
}

// replay offers ops to e from cycle now, ticking through each gap, with
// at most maxReads reads in flight (an MSHR file's worth: a full file
// ticks until a read completes), then ticks until every read completes.
// It returns the cycle after the last tick.
func replay(e *Engine, ops []engineOp, now int64) int64 {
	const maxReads = 64
	inFlight := 0
	tick := func() {
		inFlight -= len(e.Tick(now))
		now++
	}
	for _, op := range ops {
		for g := op.gap; g > 0; g-- {
			tick()
		}
		for !op.write && inFlight >= maxReads {
			tick()
		}
		if op.write {
			e.StartWrite(op.addr, now)
		} else {
			e.StartRead(op.addr, now, 0)
			inFlight++
		}
	}
	for inFlight > 0 {
		tick()
	}
	return now
}

// BenchmarkEngine replays one recorded 4096-request stream per operation
// through StartRead/StartWrite and Tick under each Fig. 6 mode, on one
// engine whose slabs, queues and metadata cache stay warm across
// iterations. Report-only: allocs/op shows whether the request path
// allocates, ns/req the engine's host cost per offered request.
func BenchmarkEngine(b *testing.B) {
	ops := recordStream(4096)
	for _, mode := range []config.Mode{
		config.ModeIntegrityTree, config.ModeSecDDRCTR, config.ModeEncryptOnlyCTR,
		config.ModeSecDDRXTS, config.ModeEncryptOnlyXTS,
	} {
		b.Run(mode.String(), func(b *testing.B) {
			e, err := NewEngine(config.Table1(mode))
			if err != nil {
				b.Fatal(err)
			}
			e.SetEventDriven(true)
			now := replay(e, ops, 0) // warm-in
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now = replay(e, ops, now)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ops)), "ns/req")
		})
	}
}
