package service

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"strings"
	"sync"
	"time"

	"secddr/internal/harness"
	"secddr/internal/obs"
)

// ReplicaOptions configures one member of a replica group sharing a
// store directory.
type ReplicaOptions struct {
	// ID is this replica's stable identity in the leader lease; empty
	// means host-pid.
	ID string
	// AdvertiseURL is the base URL peers and clients reach this replica
	// at (e.g. "http://127.0.0.1:8080"). It is written into the lease so
	// followers can proxy to the leader.
	AdvertiseURL string
	// LeaseTTL is the leader lease duration; the leader renews at TTL/3.
	// 0 means 5s; clamped to at least 1s.
	LeaseTTL time.Duration
	// Server templates the inner sweep server started on promotion. Its
	// WAL and BaseContext fields are owned by the replica and overwritten.
	Server ServerOptions
	// Log receives replica lifecycle events (promotions, demotions,
	// lease loss). Nil discards them.
	Log *slog.Logger
}

// Replica runs one secddr-serve process of a multi-replica group. All
// replicas serve the same HTTP surface: the leader runs a full sweep
// Server (queue, executors, WAL), followers transparently proxy /v1/*
// to the leader's advertised URL — a client or worker can point at any
// replica and ignore which one currently leads. When the leader dies,
// a follower's next Acquire finds the lease expired, takes over with a
// bumped epoch, replays the WAL directory, and resumes every unfinished
// sweep; the deposed leader (if merely partitioned from the lease file,
// not dead) notices on its next renew and demotes itself to follower.
type Replica struct {
	store harness.Store
	opt   ReplicaOptions
	lease *LeaderLease
	log   *slog.Logger

	// sleep pauses between lease attempts and renewals; injectable (with
	// LeaderLease.Now) so failover tests drive a fake clock instead of
	// waiting out real TTLs. It returns false when ctx ended.
	sleep func(ctx context.Context, d time.Duration) bool

	mu        sync.Mutex
	srv       *Server      // non-nil while leading
	handler   http.Handler // the leading server's mux
	epoch     uint64
	leaderURL string // last observed leader (follower redirect target)
	proxy     http.Handler
}

// NewReplica wires a replica over an open store. The store must be the
// resultstore the directory's lease and WAL files live next to.
func NewReplica(store harness.Store, dir string, opt ReplicaOptions) *Replica {
	if opt.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "replica"
		}
		opt.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opt.LeaseTTL == 0 {
		opt.LeaseTTL = 5 * time.Second
	}
	if opt.LeaseTTL < time.Second {
		opt.LeaseTTL = time.Second
	}
	logger := opt.Log
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Replica{
		store: store,
		opt:   opt,
		log:   logger,
		lease: &LeaderLease{Dir: dir, ID: opt.ID, URL: opt.AdvertiseURL, TTL: opt.LeaseTTL},
		sleep: func(ctx context.Context, d time.Duration) bool {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return false
			case <-t.C:
				return true
			}
		},
	}
}

// Leading reports whether this replica currently runs the sweep server,
// and at which epoch.
func (r *Replica) Leading() (bool, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.srv != nil, r.epoch
}

// Server returns the inner sweep server while leading (nil otherwise) —
// for tests and embedders that need direct access.
func (r *Replica) Server() *Server {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.srv
}

// LeaderURL is the last observed leader's advertised URL (its own while
// leading, "" before the first lease observation).
func (r *Replica) LeaderURL() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leaderURL
}

// Run contends for leadership until ctx ends: acquire, serve, renew;
// on lease loss demote and go back to contending. On ctx cancellation
// a leading replica shuts its server down (open sweeps stay resumable
// in the WAL) and releases the lease so a peer takes over immediately.
func (r *Replica) Run(ctx context.Context) error {
	renewEvery := r.opt.LeaseTTL / 3
	for ctx.Err() == nil {
		epoch, ok, doc, err := r.lease.Acquire()
		if err != nil {
			r.log.Error("leader lease acquire failed", "err", err)
			r.sleep(ctx, renewEvery)
			continue
		}
		if !ok {
			r.setLeader(doc.URL)
			r.sleep(ctx, renewEvery)
			continue
		}
		if err := r.promote(ctx, epoch); err != nil {
			r.log.Error("promotion failed; releasing lease", "epoch", epoch, "err", err)
			r.lease.Release(epoch)
			r.sleep(ctx, renewEvery)
			continue
		}
		for {
			if !r.sleep(ctx, renewEvery) {
				r.demote()
				r.lease.Release(epoch)
				return nil
			}
			if err := r.lease.Renew(epoch); err != nil {
				r.log.Warn("leader lease lost; demoting", "epoch", epoch, "err", err)
				r.demote()
				break
			}
		}
	}
	return nil
}

// promote opens a fresh WAL at the acquired epoch, starts the inner
// server, and recovers every unfinished sweep from the directory.
func (r *Replica) promote(ctx context.Context, epoch uint64) error {
	// Segments a peer wrote while we were following are not in our index
	// yet; recovery's done-record reconciliation needs them.
	if ref, ok := r.store.(interface{ Refresh() error }); ok {
		if err := ref.Refresh(); err != nil {
			return fmt.Errorf("service: refreshing store: %w", err)
		}
	}
	wal, err := OpenWAL(r.lease.Dir, epoch)
	if err != nil {
		return err
	}
	sopt := r.opt.Server
	sopt.WAL = wal
	sopt.BaseContext = ctx
	if sopt.Log == nil {
		sopt.Log = r.log
	}
	srv := NewServer(r.store, sopt)
	resumed, err := srv.Recover()
	if err != nil {
		srv.Shutdown()
		srv.Drain()
		wal.Close()
		return fmt.Errorf("service: WAL recovery: %w", err)
	}
	r.mu.Lock()
	r.srv = srv
	r.handler = srv.Handler()
	r.epoch = epoch
	r.leaderURL = r.opt.AdvertiseURL
	r.mu.Unlock()
	r.log.Info("promoted to leader", "epoch", epoch, "sweeps_resumed", resumed)
	return nil
}

// demote stops the inner server and closes its WAL. The handler flips
// to follower mode first, so requests arriving mid-demotion proxy to
// the next leader instead of landing on a dying server.
func (r *Replica) demote() {
	r.mu.Lock()
	srv := r.srv
	r.srv, r.handler = nil, nil
	epoch := r.epoch
	r.mu.Unlock()
	if srv == nil {
		return
	}
	srv.Shutdown()
	srv.Drain() // local in-flight sims finish; their results reach the store
	if srv.wal != nil {
		srv.wal.Close()
	}
	r.log.Info("demoted", "epoch", epoch)
}

// setLeader records the observed leader URL and (re)builds the follower
// proxy when it changed.
func (r *Replica) setLeader(leaderURL string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if leaderURL == r.leaderURL && r.proxy != nil {
		return
	}
	r.leaderURL = leaderURL
	r.proxy = nil
	if leaderURL == "" || leaderURL == r.opt.AdvertiseURL {
		return
	}
	target, err := url.Parse(leaderURL)
	if err != nil {
		r.log.Warn("unparsable leader URL", "url", leaderURL, "err", err)
		return
	}
	r.proxy = &httputil.ReverseProxy{
		Rewrite: func(pr *httputil.ProxyRequest) {
			pr.SetURL(target)
			pr.Out.Host = target.Host
		},
		// NDJSON result streams must flush line-by-line through the proxy.
		FlushInterval: 50 * time.Millisecond,
		ErrorHandler: func(w http.ResponseWriter, _ *http.Request, err error) {
			httpTypedError(w, http.StatusServiceUnavailable,
				fmt.Errorf("service: proxying to leader: %v: %w", err, &NotLeaderError{Leader: leaderURL}))
		},
	}
}

// Handler serves the replica's HTTP surface: the full sweep API while
// leading, a transparent proxy to the leader while following (with
// follower-local /healthz and /metrics so probes observe this process,
// not the leader).
func (r *Replica) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r.mu.Lock()
		handler := r.handler
		proxy := r.proxy
		leaderURL := r.leaderURL
		epoch := r.epoch
		r.mu.Unlock()
		if handler != nil {
			handler.ServeHTTP(w, req)
			return
		}
		switch {
		case req.URL.Path == "/healthz":
			r.followerHealthz(w)
		case req.URL.Path == "/metrics":
			r.followerMetrics(w, epoch)
		case strings.HasPrefix(req.URL.Path, "/v1/") && proxy != nil:
			proxy.ServeHTTP(w, req)
		default:
			httpTypedError(w, http.StatusServiceUnavailable,
				fmt.Errorf("service: replica %s is following: %w", r.opt.ID, &NotLeaderError{Leader: leaderURL}))
		}
	})
}

func (r *Replica) followerHealthz(w http.ResponseWriter) {
	hs := HealthStatus{Status: "ok", Store: "ok", Role: "follower"}
	if h, ok := r.store.(interface{ Health() error }); ok {
		if err := h.Health(); err != nil {
			hs.Status, hs.Store = "degraded", err.Error()
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if hs.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, hs)
}

// followerMetrics is the minimal exposition of a non-leading replica:
// enough for a scraper to see the process up, not leading, and at which
// last-known epoch.
func (r *Replica) followerMetrics(w http.ResponseWriter, epoch uint64) {
	var e obs.Exposition
	version, revision := obs.BuildFields()
	e.InfoGauge("secddr_build_info", "Build identification of the serving binary.",
		obs.Label{Name: "revision", Value: revision}, obs.Label{Name: "version", Value: version})
	e.Gauge("secddr_leader", "1 while this process leads the shared queue (a standalone server always leads).", 0)
	e.Gauge("secddr_lease_epoch", "Leader-lease epoch fencing this server's WAL records (0 standalone).", float64(epoch))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	io.WriteString(w, e.String())
}
