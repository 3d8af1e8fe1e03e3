package service

import (
	"sync"
	"time"

	"secddr/internal/stats"
)

// serverMetrics holds the server's wall-clock latency histograms, all
// observed in microseconds (the power-of-two buckets of stats.Histogram
// then span ~1us to minutes with useful resolution). The service layer is
// the only place these wall-clock observations are made — the simulator
// and harness stay deterministic and clock-free — and /metrics renders
// them as Prometheus histogram families.
type serverMetrics struct {
	mu         sync.Mutex
	queueWait  *stats.Histogram // enqueue (or requeue) -> lease
	leaseDur   *stats.Histogram // lease -> completion
	simWall    *stats.Histogram // one executed point, start to result (local pool + worker-reported)
	storeFlush *stats.Histogram // persisting one fresh result
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{
		queueWait:  stats.NewHistogram(),
		leaseDur:   stats.NewHistogram(),
		simWall:    stats.NewHistogram(),
		storeFlush: stats.NewHistogram(),
	}
}

func (m *serverMetrics) observe(h *stats.Histogram, d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	m.mu.Lock()
	h.Observe(uint64(us))
	m.mu.Unlock()
}

func (m *serverMetrics) observeQueueWait(d time.Duration)  { m.observe(m.queueWait, d) }
func (m *serverMetrics) observeLeaseDur(d time.Duration)   { m.observe(m.leaseDur, d) }
func (m *serverMetrics) observeSimWall(d time.Duration)    { m.observe(m.simWall, d) }
func (m *serverMetrics) observeStoreFlush(d time.Duration) { m.observe(m.storeFlush, d) }

// snapshot returns value copies safe to render without the lock held
// (stats.Histogram is all-value: a fixed bucket array plus scalars).
func (m *serverMetrics) snapshot() (queueWait, leaseDur, simWall, storeFlush stats.Histogram) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return *m.queueWait, *m.leaseDur, *m.simWall, *m.storeFlush
}
