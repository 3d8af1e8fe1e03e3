package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"secddr/internal/harness"
	"secddr/internal/sim"
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

// BenchmarkResultWire measures one result upload on the wire: encode is
// the worker's json.Marshal of its ResultUpload, decode the server's
// json.Decoder read of the body. The Result is recorded, so the body is
// the same on every run: testdata/result-mcf-sampled.json is the sampled
// QuickScale mcf secddr+ctr point at seed 42, with its estimates and
// cycle-attribution profile (2.7 KB on the wire).
// Report-only; run with -benchmem.
func BenchmarkResultWire(b *testing.B) {
	raw, err := os.ReadFile("testdata/result-mcf-sampled.json")
	if err != nil {
		b.Fatal(err)
	}
	var res sim.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		b.Fatal(err)
	}
	up := ResultUpload{WorkerID: "bench-0", Result: &res, DurationMS: 120}
	body, err := json.Marshal(up)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			if _, err := json.Marshal(up); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			var got ResultUpload
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&got); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQueue times the job queue's two worker-side calls on an
// in-memory store: lease takes one pending job for a remote worker
// (Lease with max 1 and a one-minute TTL), complete acknowledges one
// leased job with a fixed result, which the queue records and publishes.
// The jobs are distinct digests of one client at one priority, enqueued
// (and, for complete, leased) in untimed batches of 1024, each batch on a
// fresh queue so memory stays flat. Report-only; run with -benchmem.
func BenchmarkQueue(b *testing.B) {
	const batch = 1024
	const worker = "bench-0"
	ctx := context.Background()
	var res sim.Result
	fill := func(q *Queue, start int, lease bool) []string {
		subs := make([]Submission, batch)
		digests := make([]string, batch)
		for i := range subs {
			digests[i] = fmt.Sprintf("d%08d", start+i)
			subs[i] = Submission{Digest: digests[i], Key: "bench"}
		}
		q.Enqueue("bench", 0, subs...)
		if lease {
			if jobs, err := q.Lease(ctx, worker, batch, time.Minute); err != nil || len(jobs) != batch {
				b.Fatalf("leased %d of %d jobs: %v", len(jobs), batch, err)
			}
		}
		return digests
	}
	b.Run("lease", func(b *testing.B) {
		var q *Queue
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%batch == 0 {
				b.StopTimer()
				q = newQueue(newMemStore())
				fill(q, i, false)
				b.StartTimer()
			}
			if jobs, err := q.Lease(ctx, worker, 1, time.Minute); err != nil || len(jobs) != 1 {
				b.Fatalf("lease %d: %d jobs, %v", i, len(jobs), err)
			}
		}
	})
	b.Run("complete", func(b *testing.B) {
		var q *Queue
		var digests []string
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%batch == 0 {
				b.StopTimer()
				q = newQueue(newMemStore())
				digests = fill(q, i, true)
				b.StartTimer()
			}
			if !q.Complete(digests[i%batch], worker, res, nil, time.Millisecond) {
				b.Fatalf("complete %d refused", i)
			}
		}
	})
}
