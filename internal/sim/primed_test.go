package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"secddr/internal/cache"
	"secddr/internal/config"
	"secddr/internal/secmem"
)

// TestPrimedMemoKeyedByMetaLayout: the primed-metadata memo is keyed by
// what priming reads. Across the five Fig. 6 modes, configurations with
// equal layouts prime identical metadata caches from one snapshot, the
// counter-mode pair (secddr+ctr, encrypt-only-ctr) shares one memo entry,
// and every fork still matches its cold run byte for byte.
func TestPrimedMemoKeyedByMetaLayout(t *testing.T) {
	opts := make([]Options, len(fig6Modes))
	for i, mode := range fig6Modes {
		opts[i] = tinyOpt(mode, "mcf")
	}
	w, err := Warmup(opts[0])
	if err != nil {
		t.Fatal(err)
	}

	// Prime each mode's metadata cache straight from the snapshot's LLC.
	direct := make(map[secmem.MetaLayout]*cache.Cache)
	for i, opt := range opts {
		cfg := opt.withDefaults().Config
		e, err := secmem.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.PrimeResident(w.sys.llc)
		k, mc := secmem.MetaLayoutOf(cfg), e.MetaCache()
		if mc == nil {
			if k != (secmem.MetaLayout{}) {
				t.Errorf("%v has no metadata cache but a non-zero layout", fig6Modes[i])
			}
			continue
		}
		if prev, ok := direct[k]; ok && !reflect.DeepEqual(prev, mc) {
			t.Errorf("%v primes a different metadata cache than an earlier mode with the same layout", fig6Modes[i])
		}
		direct[k] = mc
	}

	layout := func(mode config.Mode, edit func(*config.Config)) secmem.MetaLayout {
		cfg := config.Table1(mode)
		edit(&cfg)
		return secmem.MetaLayoutOf(cfg)
	}
	same := func(*config.Config) {}
	ctr := layout(config.ModeSecDDRCTR, same)
	if enc := layout(config.ModeEncryptOnlyCTR, same); enc != ctr {
		t.Error("secddr+ctr and encrypt-only-ctr have different metadata layouts")
	}
	if tree := layout(config.ModeIntegrityTree, same); tree == ctr {
		t.Error("the integrity tree and flat counters share a metadata layout")
	}
	if big := layout(config.ModeSecDDRCTR, func(c *config.Config) { c.Security.MetadataCache.SizeBytes *= 2 }); big == ctr {
		t.Error("a larger metadata cache keeps the same layout")
	}
	if wide := layout(config.ModeIntegrityTree, func(c *config.Config) { c.Security.TreeArity = 8 }); wide == layout(config.ModeIntegrityTree, same) {
		t.Error("a tree of another arity keeps the same layout")
	}

	for i, opt := range opts {
		res, err := w.Fork(opt)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(res)
		want, _ := json.Marshal(cold)
		if !bytes.Equal(got, want) {
			t.Errorf("%v: fork diverges from the cold run:\ncold: %s\nfork: %s", fig6Modes[i], want, got)
		}
	}
	if len(w.primed) != len(direct) || len(direct) != 2 {
		t.Errorf("the memo holds %d primed caches for %d layouts with metadata, want 2 (tree; counters)", len(w.primed), len(direct))
	}
	for k, c := range w.primed {
		if !reflect.DeepEqual(c, direct[k]) {
			t.Error("a memoized primed cache differs from priming its layout directly")
		}
	}
}
