// Command secddr-serve is the campaign service daemon: an HTTP server
// that accepts sweep specifications, runs them on a shared bounded
// simulation pool with in-flight deduplication, persists every point in
// an append-only result store, and streams results to clients as points
// finish. Many clients can query and extend one store concurrently; an
// identical grid re-submitted later is served without simulating.
//
// Sweeps are durable: every accepted submission is logged to a
// write-ahead log next to the store segments, so a killed or restarted
// daemon resumes its unfinished sweeps on the next boot — completed
// points replay from the store, only the remainder re-runs, and clients
// resume their result streams from a cursor with nothing lost or
// duplicated.
//
// Usage:
//
//	secddr-serve                                  # :8080, store in ./secddr-store
//	secddr-serve -addr 127.0.0.1:0 -store /var/lib/secddr -workers 8
//
// Submit work with secddr-sweep -server http://HOST:PORT, or directly
// (PUT with a key of your choosing makes the submission idempotent —
// re-PUT the same body and you attach to the running sweep):
//
//	curl -s -X PUT localhost:8080/v1/sweeps/nightly-mcf -d '{"modes":["secddr+ctr"],"workloads":["mcf"],"quick":true}'
//	curl -s localhost:8080/v1/sweeps/sw-<ID>/results            # NDJSON stream
//	curl -s 'localhost:8080/v1/sweeps/sw-<ID>/results?after=12' # resume from seq 12
//	curl -s localhost:8080/metrics
//
// Execution scales out two ways. Horizontally: any number of
// secddr-worker processes may attach (-server URL) and pull leased jobs
// from the daemon's queue (-workers -1 makes the daemon fleet-only).
// For availability: several secddr-serve replicas may share one -store
// directory — they elect a leader through a leased file in the store,
// followers transparently proxy the API to it, and when the leader dies
// a follower takes over, replays the WAL, and resumes every sweep.
//
// See README.md for the full quickstart and DESIGN.md for the design.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // -debug-addr serves the DefaultServeMux profiles
	"os"
	"os/signal"
	"syscall"
	"time"

	"secddr/internal/obs"
	"secddr/internal/resultstore"
	"secddr/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "secddr-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", ":8080", "listen address (port 0 picks a free port)")
		storeDir  = flag.String("store", "secddr-store", "result store directory (created if missing)")
		workers   = flag.Int("workers", 0, "local simulation pool size (0 = GOMAXPROCS, negative = fleet-only: execute nothing locally, serve leases to secddr-worker processes)")
		addrFile  = flag.String("addr-file", "", "write the server's base URL to this file once ready (for scripts)")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
		logLevel  = flag.String("log-level", "info", "structured log threshold: debug, info, warn, or error")
		advertise = flag.String("advertise", "", "base URL peers and clients reach this replica at (default http://<listen-addr>); matters when several replicas share a store")
		leaseTTL  = flag.Duration("lease-ttl", 5*time.Second, "leader lease duration for multi-replica groups (failover takes about this long)")
		replicaID = flag.String("replica-id", "", "stable replica identity in the leader lease (default host-pid)")
		maxPerCli = flag.Int("max-jobs-per-client", 0, "per-client quota: max outstanding jobs across a client's running sweeps (0 = unlimited)")
		version   = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(obs.Version("secddr-serve"))
		return nil
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("-log-level %q: %w", *logLevel, err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	store, err := resultstore.Open(*storeDir, resultstore.Options{})
	if err != nil {
		return err
	}
	defer store.Close()

	// SIGINT/SIGTERM stop new simulations; in-flight points finish and
	// reach the store before exit (the store appends per point). Sweeps
	// cut short stay open in the WAL and resume on the next boot.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	baseURL := "http://" + ln.Addr().String()
	advertiseURL := *advertise
	if advertiseURL == "" {
		advertiseURL = baseURL
	}

	rep := service.NewReplica(store, store.Dir(), service.ReplicaOptions{
		ID:           *replicaID,
		AdvertiseURL: advertiseURL,
		LeaseTTL:     *leaseTTL,
		Server: service.ServerOptions{
			Workers:          *workers,
			Log:              logger,
			MaxJobsPerClient: *maxPerCli,
		},
		Log: logger,
	})
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		rep.Run(ctx)
	}()

	// Wait for a role before announcing readiness: either this replica
	// acquired the lease (standalone servers do so on the first attempt)
	// or it observed a live leader to proxy to. A bounded wait — if the
	// directory is contested and unreadable, serve anyway and let
	// requests answer 503 not_leader.
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline) && ctx.Err() == nil; {
		if leading, _ := rep.Leading(); leading || rep.LeaderURL() != "" {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	role := "follower"
	if leading, epoch := rep.Leading(); leading {
		role = fmt.Sprintf("leader (epoch %d)", epoch)
	}
	fmt.Fprintf(os.Stderr, "secddr-serve: listening on %s (store %s, %s)\n", baseURL, *storeDir, role)
	if *debugAddr != "" {
		go func() {
			// The blank net/http/pprof import registered its handlers on
			// the DefaultServeMux; nil serves it. Deliberately a separate
			// listener so profiles are never exposed on the public API addr.
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				logger.Warn("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		logger.Info("pprof debug server", "addr", *debugAddr)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(baseURL+"\n"), 0o644); err != nil {
			return err
		}
	}

	httpSrv := &http.Server{Handler: rep.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "secddr-serve: shutting down (in-flight simulations may take a moment)")
	// The cancelled ctx makes rep.Run demote: no more leases go out,
	// unacked remote jobs fail their sweeps immediately (they stay
	// resumable in the WAL), local in-flight simulations run to
	// completion and reach the store, the WAL closes, and the leader
	// lease is released so a peer replica can take over at once.
	<-runDone
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutdownCtx)
	return nil
}
