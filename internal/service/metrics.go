package service

import (
	"sync"
	"time"

	"secddr/internal/obs"
	"secddr/internal/stats"
)

// serverMetrics is the sweep server's one counting record: every
// cumulative counter and latency histogram /metrics serves, under one
// lock. The Server counts sweeps and per-sweep job outcomes, and its
// Queue counts leases and finished points; Queue.Complete observes each
// finished point's lease, store and sim-wall times before it publishes the
// result, whether the local pool or a remote worker ran it. Histograms
// observe microseconds (the power-of-two buckets of stats.Histogram then
// span ~1us to minutes with useful resolution). The service layer is the
// only place these wall-clock observations are made — the simulator and
// harness stay deterministic and clock-free.
type serverMetrics struct {
	mu sync.Mutex
	metricCounts
}

// metricCounts is the content of serverMetrics; snapshot copies it by
// value (stats.Histogram is all-value: a fixed bucket array plus scalars).
type metricCounts struct {
	simsExecuted    int64 // simulations actually run (local pool or remote workers)
	jobsCached      int64 // jobs served straight from the store
	jobsDeduped     int64 // jobs that joined an in-flight digest
	sweepsTotal     int64 // sweeps submitted or recovered
	sweepsRecovered int64 // unfinished sweeps resumed from the WAL at boot
	walReplayed     int64 // WAL records replayed at boot
	quotaRejected   int64 // submissions rejected by the per-client quota

	leasedTotal int64 // jobs ever handed to remote workers
	requeued    int64 // leases reclaimed from silent workers (Reap)
	released    int64 // leases given back cooperatively (Release)
	remoteDone  int64 // jobs finished by a remote result upload

	queueWait  stats.Histogram // enqueue (or requeue) -> lease
	leaseDur   stats.Histogram // lease -> completion
	simWall    stats.Histogram // one executed point, start to result
	storeFlush stats.Histogram // persisting one fresh result
}

// add adds n to c, one of m's counters.
func (m *serverMetrics) add(c *int64, n int64) {
	m.mu.Lock()
	*c += n
	m.mu.Unlock()
}

// observe records d in h, one of m's histograms, in whole microseconds.
func (m *serverMetrics) observe(h *stats.Histogram, d time.Duration) {
	m.mu.Lock()
	h.Observe(uint64(max(d.Microseconds(), 0)))
	m.mu.Unlock()
}

// snapshot returns a copy safe to render without the lock held.
func (m *serverMetrics) snapshot() metricCounts {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.metricCounts
}

// buildInfo adds the build identification family both replica roles
// expose.
func buildInfo(e *obs.Exposition) {
	version, revision := obs.BuildFields()
	e.InfoGauge("secddr_build_info", "Build identification of the serving binary.",
		obs.Label{Name: "revision", Value: revision}, obs.Label{Name: "version", Value: version})
}

// leadership adds the leader and lease-epoch gauges both replica roles
// expose.
func leadership(e *obs.Exposition, leading bool, epoch uint64) {
	leader := 0.0
	if leading {
		leader = 1
	}
	e.Gauge("secddr_leader", "1 while this process leads the shared queue (a standalone server always leads).", leader)
	e.Gauge("secddr_lease_epoch", "Leader-lease epoch fencing this server's WAL records (0 standalone).", float64(epoch))
}
