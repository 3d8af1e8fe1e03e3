package sim

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"secddr/internal/config"
)

// fig6Modes are the five configurations of the paper's Fig. 6.
var fig6Modes = []config.Mode{
	config.ModeIntegrityTree,
	config.ModeSecDDRCTR,
	config.ModeEncryptOnlyCTR,
	config.ModeSecDDRXTS,
	config.ModeEncryptOnlyXTS,
}

// TestForkReusesStorage: a finished fork hands its LLC on to the next
// fork, so once one fork has run, further forks of a snapshot allocate a
// small fraction of one LLC copy; and forks that trade that storage
// concurrently still match cold runs byte for byte. The concurrent half
// repeats under -race in CI, since recycled arrays pass between goroutines.
func TestForkReusesStorage(t *testing.T) {
	t.Run("sequential", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race detector allocates on its own")
		}
		opt := tinyOpt(config.ModeSecDDRCTR, "mcf")
		w, err := Warmup(opt)
		if err != nil {
			t.Fatal(err)
		}
		// Per line the LLC stores a tag and an LRU stamp (8 bytes each)
		// and a dirty flag.
		g := w.sys.llc.Geom()
		llcBytes := uint64(g.SizeBytes/g.LineBytes) * (8 + 8 + 1)
		if _, err := w.Fork(opt); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const forks = 5
		for range forks {
			if _, err := w.Fork(opt); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / forks
		t.Logf("%d bytes allocated per fork; the LLC's arrays are %d bytes", per, llcBytes)
		if per >= llcBytes/4 {
			t.Errorf("each fork allocates %d bytes, want under a quarter of the LLC's %d: its storage is not recycled",
				per, llcBytes)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		opts := make([]Options, len(fig6Modes))
		for i, mode := range fig6Modes {
			opts[i] = tinyOpt(mode, "mcf")
		}
		w, err := Warmup(opts[0])
		if err != nil {
			t.Fatal(err)
		}
		const workers = 2
		var got [workers][][]byte
		errs := make(chan error, workers)
		for g := range workers {
			go func() {
				for _, opt := range opts {
					res, err := w.Fork(opt)
					if err != nil {
						errs <- err
						return
					}
					j, err := json.Marshal(res)
					if err != nil {
						errs <- err
						return
					}
					got[g] = append(got[g], j)
				}
				errs <- nil
			}()
		}
		for range workers {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		for i, opt := range opts {
			cold, err := Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(cold)
			if err != nil {
				t.Fatal(err)
			}
			for g := range workers {
				if !bytes.Equal(got[g][i], want) {
					t.Errorf("%v, worker %d: fork on recycled storage diverges from the cold run:\ncold: %s\nfork: %s",
						fig6Modes[i], g, want, got[g][i])
				}
			}
		}
	})
}
