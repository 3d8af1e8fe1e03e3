package harness

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"secddr/internal/config"
	"secddr/internal/resultstore"
	"secddr/internal/sim"
)

// The segment store must satisfy the campaign Store contract.
var _ Store = (*resultstore.Store)(nil)

// TestStoreBackedCampaign runs the cache-hit/skip contract against the
// resultstore backend.
func TestStoreBackedCampaign(t *testing.T) {
	st, err := resultstore.Open(filepath.Join(t.TempDir(), "store"), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c := Campaign{Jobs: tinyGrid().Jobs(), Store: st}

	if _, stats, err := Run(c); err != nil {
		t.Fatal(err)
	} else if stats.Executed != 4 || stats.Cached != 0 {
		t.Fatalf("first run stats = %+v, want 4 executed", stats)
	}
	outs, stats, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 0 || stats.Cached != 4 {
		t.Fatalf("second run stats = %+v, want 4 cached / 0 executed", stats)
	}
	for _, o := range outs {
		if !o.Cached {
			t.Errorf("outcome %q not served from store", o.Key)
		}
	}
}

// TestRunContextCancel: a cancelled campaign must stop dispatching, keep
// every completed point in the store, and report the interruption.
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: nothing may dispatch
	st, err := resultstore.Open(filepath.Join(t.TempDir(), "store"), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if _, stats, err := RunContext(ctx, Campaign{Jobs: tinyGrid().Jobs(), Store: st}); err == nil {
		t.Fatal("cancelled campaign reported success")
	} else if stats.Executed != 0 {
		t.Fatalf("cancelled-before-dispatch campaign executed %d points", stats.Executed)
	}

	// A campaign cancelled mid-flight still returns an error, and whatever
	// finished is in the store for the resumed run to reuse.
	jobs := tinyGrid().Jobs()
	if _, _, err := Run(Campaign{Jobs: jobs[:1], Store: st}); err != nil {
		t.Fatal(err)
	}
	outs, stats, err := Run(Campaign{Jobs: jobs, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cached != 1 || stats.Executed != 3 {
		t.Fatalf("resumed run stats = %+v, want 1 cached / 3 executed", stats)
	}
	if !outs[0].Cached {
		t.Error("point completed before interruption was re-simulated")
	}
}

// BenchmarkStoreFlush measures the cost of persisting one fresh point
// once 500 are already recorded: the segment store appends one line, so
// the cost is O(point), not O(table).
func BenchmarkStoreFlush(b *testing.B) {
	res := sim.Result{
		Workload:   "mcf",
		Mode:       config.ModeSecDDRCTR,
		IPC:        1.5,
		PerCoreIPC: []float64{0.4, 0.4, 0.35, 0.35},
	}
	const preload = 500

	b.Run("resultstore", func(b *testing.B) {
		st, err := resultstore.Open(filepath.Join(b.TempDir(), "store"), resultstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		for i := 0; i < preload; i++ {
			if err := st.Record(fmt.Sprintf("pre%04d", i), res); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Record(fmt.Sprintf("new%08d", i), res); err != nil {
				b.Fatal(err)
			}
		}
	})
}
