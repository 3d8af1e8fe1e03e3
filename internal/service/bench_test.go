package service

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"syscall"
	"testing"
	"time"

	"secddr/internal/harness"
)

// BenchmarkServiceSweep times the 2×3 QuickScale grid through the sweep
// service: a fleet-only server and two one-slot workers over loopback
// HTTP, on a fresh store each iteration. Next to ns/op it reports the
// sweep's wall time over a local harness.Run of the same grid on as many
// slots (run-ratio, untimed itself), and the slots' utilisation during
// the sweep: process CPU time ÷ (slots × wall) (slot-util).
func BenchmarkServiceSweep(b *testing.B) {
	const slots = 2
	spec := Spec{
		Modes:     []string{"unprotected", "secddr+ctr", "secddr+xts"},
		Workloads: []string{"mcf", "lbm"},
		Quick:     true,
	}
	grid, err := spec.Grid()
	if err != nil {
		b.Fatal(err)
	}
	jobs := grid.Jobs()
	var local, remote, cpu time.Duration
	b.ReportAllocs()
	b.StopTimer()
	for i := range b.N {
		start := time.Now()
		if _, _, err := harness.Run(harness.Campaign{Jobs: jobs, Workers: slots}); err != nil {
			b.Fatal(err)
		}
		local += time.Since(start)

		srv := NewServer(newMemStore(), ServerOptions{Workers: -1})
		ts := httptest.NewServer(srv.Handler())
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for k := range slots {
			w := &Worker{Client: &Client{BaseURL: ts.URL}, ID: fmt.Sprint("bench-", k), Workers: 1}
			wg.Add(1)
			go func() { defer wg.Done(); w.Run(ctx) }()
		}
		cl := &Client{BaseURL: ts.URL}
		cpu0 := cpuTime()
		start = time.Now()
		b.StartTimer()
		outs, _, err := cl.RunRemoteKeyed(ctx, fmt.Sprint("bench-", i), spec, nil)
		b.StopTimer()
		remote += time.Since(start)
		cpu += cpuTime() - cpu0
		if err != nil || len(outs) != len(jobs) {
			b.Fatalf("sweep: %d outcomes, %v", len(outs), err)
		}
		cancel()
		wg.Wait()
		srv.Shutdown()
		srv.Drain()
		ts.Close()
	}
	b.ReportMetric(remote.Seconds()/local.Seconds(), "run-ratio")
	b.ReportMetric(cpu.Seconds()/(slots*remote.Seconds()), "slot-util")
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
