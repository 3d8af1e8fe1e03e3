package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"secddr/internal/resultstore"
	"secddr/internal/sim"
)

// fakeClock is a hand-advanced time source shared by every lease in a
// failover test, so TTL expiry is driven instead of waited out.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestLeaderLease: acquire/renew/release with epoch fencing, on a fake
// clock.
func TestLeaderLease(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	l1 := &LeaderLease{Dir: dir, ID: "r1", URL: "http://r1", TTL: 5 * time.Second, Now: clock.Now}
	l2 := &LeaderLease{Dir: dir, ID: "r2", URL: "http://r2", TTL: 5 * time.Second, Now: clock.Now}

	epoch, ok, _, err := l1.Acquire()
	if err != nil || !ok || epoch != 1 {
		t.Fatalf("first acquire = (%d, %v, %v), want epoch 1", epoch, ok, err)
	}
	// A live lease blocks the peer, and tells it who leads.
	if _, ok, doc, err := l2.Acquire(); err != nil || ok || doc.HolderID != "r1" || doc.URL != "http://r1" {
		t.Fatalf("contended acquire = (%v, %+v, %v), want blocked by r1", ok, doc, err)
	}
	if err := l1.Renew(epoch); err != nil {
		t.Fatalf("renew while holding: %v", err)
	}

	// Past the TTL the peer takes over at a bumped epoch; the deposed
	// holder's renew is fenced off.
	clock.Advance(6 * time.Second)
	epoch2, ok, _, err := l2.Acquire()
	if err != nil || !ok || epoch2 != 2 {
		t.Fatalf("takeover = (%d, %v, %v), want epoch 2", epoch2, ok, err)
	}
	if err := l1.Renew(epoch); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("deposed renew = %v, want ErrLeaseLost", err)
	}

	// Release rewinds the expiry: the next acquire wins immediately.
	if err := l2.Release(epoch2); err != nil {
		t.Fatal(err)
	}
	if epoch3, ok, _, err := l1.Acquire(); err != nil || !ok || epoch3 != 3 {
		t.Fatalf("post-release acquire = (%d, %v, %v), want epoch 3", epoch3, ok, err)
	}
}

// TestReplicaFailover: replica 1 leads and runs half a sweep; its lease
// expires (fake clock), replica 2 fences it off at a higher epoch,
// replays the shared WAL directory, and finishes the sweep — no digest
// executes twice, and the demoted replica transparently proxies client
// traffic to the new leader.
func TestReplicaFailover(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	ctx := context.Background()
	spec := tinySpec() // 4 jobs
	const key = "failover"
	id, err := SweepID(key, spec)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	executed := map[string]int{}
	countingSim := func(o sim.Options) (sim.Result, error) {
		mu.Lock()
		executed[o.Digest()]++
		mu.Unlock()
		return fakeSim(o)
	}

	mkReplica := func(rid string) (*Replica, *httptest.Server) {
		store, err := resultstore.Open(dir, resultstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		r := NewReplica(store, dir, ReplicaOptions{
			ID:       rid,
			LeaseTTL: 5 * time.Second,
			Server:   ServerOptions{Workers: 2},
		})
		r.lease.Now = clock.Now
		ts := httptest.NewServer(r.Handler())
		t.Cleanup(ts.Close)
		r.opt.AdvertiseURL = ts.URL
		r.lease.URL = ts.URL
		return r, ts
	}
	r1, ts1 := mkReplica("r1")
	r2, ts2 := mkReplica("r2")

	started := make(chan struct{}, 8)
	release := make(chan struct{})
	r1.opt.Server.runSim = func(o sim.Options) (sim.Result, error) {
		started <- struct{}{}
		<-release
		return countingSim(o)
	}
	r2.opt.Server.runSim = countingSim

	// r1 wins the lease and leads; r2's contending acquire loses and
	// learns the leader's URL.
	epoch1, ok, _, err := r1.lease.Acquire()
	if err != nil || !ok || epoch1 != 1 {
		t.Fatalf("r1 acquire = (%d, %v, %v)", epoch1, ok, err)
	}
	if err := r1.promote(ctx, epoch1); err != nil {
		t.Fatal(err)
	}
	if _, ok, doc, _ := r2.lease.Acquire(); ok || doc.URL != ts1.URL {
		t.Fatalf("r2 contending acquire = (%v, %+v), want blocked by r1", ok, doc)
	}
	r2.setLeader(ts1.URL)

	// Submitting through the FOLLOWER proxies to the leader.
	cl2 := &Client{BaseURL: ts2.URL}
	sub, err := cl2.SubmitKeyed(ctx, key, spec)
	if err != nil || sub.ID != id {
		t.Fatalf("submit via follower = %+v, %v", sub, err)
	}
	<-started
	<-started // two jobs in flight on r1, two queued

	// The lease expires un-renewed; r2 fences r1 off at epoch 2.
	clock.Advance(6 * time.Second)
	epoch2, ok, _, err := r2.lease.Acquire()
	if err != nil || !ok || epoch2 != epoch1+1 {
		t.Fatalf("r2 takeover = (%d, %v, %v), want epoch %d", epoch2, ok, err, epoch1+1)
	}
	if err := r1.lease.Renew(epoch1); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("fenced renew = %v, want ErrLeaseLost", err)
	}

	// r1 demotes: queued jobs fail resumable, in-flight jobs finish into
	// the shared store and WAL, the handler flips to follower mode.
	r1.Server().Shutdown()
	close(release)
	r1.demote()
	if leading, _ := r1.Leading(); leading {
		t.Fatal("r1 still leading after demote")
	}
	if _, ok, doc, _ := r1.lease.Acquire(); ok {
		t.Fatal("deposed r1 re-acquired a live lease")
	} else {
		r1.setLeader(doc.URL)
	}

	// r2 promotes: store refresh + WAL replay resume the sweep.
	if err := r2.promote(ctx, epoch2); err != nil {
		t.Fatal(err)
	}
	if leading, epoch := r2.Leading(); !leading || epoch != epoch2 {
		t.Fatalf("r2 Leading() = (%v, %d), want (true, %d)", leading, epoch, epoch2)
	}
	if fam := scrape(t, ts2.URL)["secddr_lease_epoch"]; fam == nil {
		t.Error("leader /metrics has no secddr_lease_epoch")
	} else if v, _ := fam.Value(); v != float64(r2.Server().wal.Epoch()) || v != float64(epoch2) {
		t.Errorf("leader secddr_lease_epoch = %v, want its WAL epoch %d", v, epoch2)
	}
	sw, ok := r2.Server().lookupSweep(id)
	if !ok {
		t.Fatalf("new leader does not know sweep %s", id)
	}
	st := waitState(t, sw)
	if st.State != string(stateDone) {
		t.Fatalf("sweep after failover = %q (%s), want done", st.State, st.Error)
	}
	if st.Stats.Recovered != 2 {
		t.Errorf("stats.Recovered = %d, want 2", st.Stats.Recovered)
	}

	// Exactly-once across the failover.
	mu.Lock()
	if len(executed) != 4 {
		t.Errorf("%d digests executed, want 4", len(executed))
	}
	for d, n := range executed {
		if n != 1 {
			t.Errorf("digest %s executed %d times across failover, want 1", d, n)
		}
	}
	mu.Unlock()

	// The demoted replica proxies the full API — status and the result
	// stream — to the new leader.
	cl1 := &Client{BaseURL: ts1.URL}
	if st, err := cl1.Status(ctx, id); err != nil || st.State != string(stateDone) {
		t.Fatalf("status via demoted replica = %+v, %v", st, err)
	}
	keys := map[string]bool{}
	err = cl1.StreamResults(ctx, id, func(item StreamItem) error {
		if !item.End {
			keys[item.Key] = true
		}
		return nil
	})
	if err != nil || len(keys) != 4 {
		t.Fatalf("stream via demoted replica = %d results, %v; want 4", len(keys), err)
	}

	// Follower-local metrics say so.
	resp, err := http.Get(ts1.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "secddr_leader 0") {
		t.Errorf("follower /metrics missing secddr_leader 0:\n%s", body)
	}

	r2.demote()
}
