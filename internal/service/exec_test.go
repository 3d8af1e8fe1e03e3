package service

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"secddr/internal/sim"
)

// TestNoBatchBarrier: a slot stuck on a slow point does not hold up the
// rest of a sweep. With two slots and a six-point sweep whose first
// point blocks, the other slot runs all five others while it blocks, on
// the local pool and on a fleet worker alike: each execution loop leases
// more whenever a slot would idle, instead of waiting for a lease batch
// to finish.
func TestNoBatchBarrier(t *testing.T) {
	spec := Spec{
		Modes:        []string{"unprotected", "secddr+ctr", "secddr+xts"},
		Workloads:    []string{"mcf", "lbm"},
		InstrPerCore: 5_000,
		WarmupInstr:  1_000,
	}
	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	jobs := grid.Jobs()
	if len(jobs) != 6 {
		t.Fatalf("grid has %d points, want 6", len(jobs))
	}
	slow := jobs[0].Opt.Digest()

	for _, path := range []string{"local", "fleet"} {
		t.Run(path, func(t *testing.T) {
			unblock := make(chan struct{})
			stub := func(o sim.Options) (sim.Result, error) {
				if o.Digest() == slow {
					<-unblock
				}
				return fakeSim(o)
			}
			workers := 2
			if path == "fleet" {
				workers = -1
			}
			srv := NewServer(newMemStore(), ServerOptions{Workers: workers, runSim: stub}) // the local pool's; the fleet worker takes its own
			ctx, cancel := context.WithCancel(context.Background())
			var wg sync.WaitGroup
			defer func() {
				cancel()
				wg.Wait()
				srv.Shutdown()
				srv.Drain()
			}()
			if path == "fleet" {
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()
				w := &Worker{Client: &Client{BaseURL: ts.URL}, ID: "w1", Workers: 2, PollWait: 50 * time.Millisecond, Sim: stub}
				wg.Add(1)
				go func() { defer wg.Done(); w.Run(ctx) }()
			}

			sw, err := submitFresh(srv, spec)
			if err != nil {
				t.Fatal(err)
			}
			deadline := time.After(5 * time.Second)
			for sw.status().Done < 5 {
				select {
				case <-deadline:
					close(unblock)
					t.Fatalf("%d of 5 points done while the first one blocked", sw.status().Done)
				case <-time.After(time.Millisecond):
				}
			}
			close(unblock)
			if st := waitState(t, sw); st.State != string(stateDone) || st.Stats.Executed != 6 {
				t.Fatalf("sweep = %+v, want done with 6 executed", st)
			}
		})
	}
}
