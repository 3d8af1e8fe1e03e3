package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"secddr/internal/flock"
)

// Multi-replica coordination: N secddr-serve replicas may share one
// store directory, but exactly one — the leader — owns the queue,
// executes jobs, and hands out worker leases at a time. Leadership is a
// leased file (LEADER) in the store directory, mutated only under an
// flock on LEADER.lock: the holder renews before the TTL elapses, and a
// replica that finds the lease expired takes over by writing itself in
// with a bumped epoch. The epoch fences stragglers twice over: a
// deposed leader's Renew sees the foreign epoch and demotes itself
// (ErrLeaseLost), and any WAL records its last gasp still flushed lose
// epoch-wins conflict resolution on the next replay.
//
// This is single-host coordination (flock + a shared directory), same
// as the rest of the store: replicas on one machine, surviving process
// crashes — not a distributed consensus protocol.

const (
	leaderFile = "LEADER"      // the lease document
	leaderLock = "LEADER.lock" // flocked while reading or writing it
)

// leaseDoc is the LEADER file body.
type leaseDoc struct {
	Epoch         uint64 `json:"epoch"`
	HolderID      string `json:"holder_id"`
	URL           string `json:"url"` // the holder's advertised base URL
	ExpiresUnixMS int64  `json:"expires_unix_ms"`
}

// LeaderLease is one replica's handle on the leadership file.
type LeaderLease struct {
	Dir string        // the shared store directory
	ID  string        // this replica's stable identity (host-pid by default)
	URL string        // advertised base URL, stored for follower redirects
	TTL time.Duration // lease duration; renew well inside it

	// Now is the lease clock, injectable for failover tests. Nil means
	// time.Now.
	Now func() time.Time
}

func (l *LeaderLease) now() time.Time {
	if l.Now != nil {
		return l.Now()
	}
	return time.Now()
}

// withLock runs fn with the directory's leader lock held.
func (l *LeaderLease) withLock(fn func() error) error {
	release, err := flock.Lock(filepath.Join(l.Dir, leaderLock))
	if err != nil {
		return fmt.Errorf("service: leader lock: %w", err)
	}
	defer release()
	return fn()
}

// readDoc loads the current lease document (zero value if none exists).
// Caller holds the leader lock. A torn or corrupt LEADER file — a crash
// mid-rename should make that impossible, but disks disappoint — reads
// as "no lease", which only ever errs toward an extra takeover.
func (l *LeaderLease) readDoc() leaseDoc {
	var doc leaseDoc
	data, err := os.ReadFile(filepath.Join(l.Dir, leaderFile))
	if err != nil {
		return leaseDoc{}
	}
	if json.Unmarshal(data, &doc) != nil {
		return leaseDoc{}
	}
	return doc
}

// writeDoc atomically replaces the lease document. Caller holds the
// leader lock.
func (l *LeaderLease) writeDoc(doc leaseDoc) error {
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	tmp := filepath.Join(l.Dir, leaderFile+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(l.Dir, leaderFile))
}

// Acquire attempts to take (or keep) leadership. On success it returns
// (epoch, true, ...): a fresh takeover bumps the previous epoch, a
// re-acquire by the current holder keeps its epoch and extends the
// expiry. On failure it returns the live lease document so the caller
// knows who leads and until when.
func (l *LeaderLease) Acquire() (epoch uint64, ok bool, current leaseDoc, err error) {
	err = l.withLock(func() error {
		doc := l.readDoc()
		now := l.now()
		if doc.HolderID != l.ID && doc.ExpiresUnixMS > now.UnixMilli() {
			current = doc
			return nil // someone else holds a live lease
		}
		next := leaseDoc{
			Epoch:         doc.Epoch,
			HolderID:      l.ID,
			URL:           l.URL,
			ExpiresUnixMS: now.Add(l.TTL).UnixMilli(),
		}
		if doc.HolderID != l.ID {
			next.Epoch++ // takeover: fence the previous holder's records
		}
		if err := l.writeDoc(next); err != nil {
			return fmt.Errorf("service: writing leader lease: %w", err)
		}
		epoch, ok, current = next.Epoch, true, next
		return nil
	})
	return epoch, ok, current, err
}

// Renew extends the lease, failing with ErrLeaseLost if another replica
// took over (different holder or epoch) since Acquire — the caller must
// demote itself and stop executing.
func (l *LeaderLease) Renew(epoch uint64) error {
	return l.withLock(func() error {
		doc := l.readDoc()
		if doc.HolderID != l.ID || doc.Epoch != epoch {
			return fmt.Errorf("%w: lease now held by %q at epoch %d", ErrLeaseLost, doc.HolderID, doc.Epoch)
		}
		doc.ExpiresUnixMS = l.now().Add(l.TTL).UnixMilli()
		doc.URL = l.URL
		if err := l.writeDoc(doc); err != nil {
			return fmt.Errorf("service: renewing leader lease: %w", err)
		}
		return nil
	})
}

// Release gives the lease up immediately (graceful shutdown): the expiry
// is rewound so a peer's next Acquire succeeds without waiting out the
// TTL. A lease that moved on is left alone.
func (l *LeaderLease) Release(epoch uint64) error {
	return l.withLock(func() error {
		doc := l.readDoc()
		if doc.HolderID != l.ID || doc.Epoch != epoch {
			return nil
		}
		doc.ExpiresUnixMS = l.now().UnixMilli()
		return l.writeDoc(doc)
	})
}
