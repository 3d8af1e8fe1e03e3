//go:build unix

// Package flock provides advisory file locking for the processes that
// share a result store directory. Every append-only file there — result
// segments and sweep WALs alike — is a resultstore.Log, flocked by its
// writer for its lifetime, so compaction can tell an abandoned segment
// (crashed process, lock free) from one an active writer still owns; the
// campaign service also serializes leader-lease updates under an
// exclusive lock.
//
// Locks are flock(2)-style: per open file description, so they exclude
// both other processes and other handles within one process, and the
// kernel drops them automatically when the holder dies — no stale-lock
// cleanup is ever needed.
package flock

import (
	"fmt"
	"os"
	"syscall"
)

// Lock opens (creating if needed) the lock file at path and blocks until
// it holds an exclusive lock. The returned release func unlocks and
// closes the file; it must be called exactly once.
func Lock(path string) (release func(), err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("flock: open %s: %w", path, err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		f.Close()
		return nil, fmt.Errorf("flock: lock %s: %w", path, err)
	}
	return func() {
		syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
		f.Close()
	}, nil
}

// TryLock attempts a non-blocking exclusive lock on an already-open file.
// It reports false (with nil error) when another handle holds the lock.
func TryLock(f *os.File) (bool, error) {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if err == syscall.EWOULDBLOCK {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("flock: trylock %s: %w", f.Name(), err)
	}
	return true, nil
}

// LockFile takes a blocking exclusive lock on an already-open file.
func LockFile(f *os.File) error {
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		return fmt.Errorf("flock: lock %s: %w", f.Name(), err)
	}
	return nil
}
