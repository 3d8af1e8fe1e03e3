package service

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSpecGrid decodes arbitrary bytes as a sweep spec body, the way the
// submit handler does, and expands every spec it accepts. Expansion must
// not panic; an accepted grid's jobs have pairwise-distinct keys and
// digests, which is what lets each job complete on its own; and a spec's
// SweepID survives a JSON round trip, which is what makes a keyed
// re-submission and a WAL replay find the same sweep.
func FuzzSpecGrid(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"modes":["unprotected","secddr+ctr"],"workloads":["mcf","lbm"],"instr_per_core":5000}`,
		`{"modes":["secddr+ctr","secddr+ctr"],"workloads":["mcf"]}`,
		`{"modes":["fig6","integrity-tree"],"workloads":["pr"],"seed_per_job":true}`,
		`{"modes":["all"],"workloads":["bc"],"quick":true,"channels":4,"seed":0}`,
		`{"modes":["secddr+ctr"],"scenarios":["thrash-one","all"],"quick":true}`,
		`{"modes":["secddr+xts"],"workloads":["mcf"],"fidelity":{"modes":["exact","sampled"],"window_instr":2000}}`,
		`{"workloads":["omnetpp"],"client":"a","priority":-3}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		grid, err := spec.Grid()
		if err != nil {
			return
		}
		keys, digests := map[string]bool{}, map[string]string{}
		for _, j := range grid.Jobs() {
			d := j.Opt.Digest()
			if keys[j.Key] {
				t.Fatalf("accepted spec repeats job %q", j.Key)
			}
			if prev, ok := digests[d]; ok {
				t.Fatalf("accepted spec runs jobs %q and %q as one digest", prev, j.Key)
			}
			keys[j.Key], digests[d] = true, j.Key
		}

		id, err := SweepID("fuzz", spec)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeSpec(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("re-decoding %s: %v", raw, err)
		}
		if id2, err := SweepID("fuzz", back); err != nil || id2 != id {
			t.Fatalf("SweepID %s became %s (%v) across a JSON round trip of %s", id, id2, err, raw)
		}
	})
}
