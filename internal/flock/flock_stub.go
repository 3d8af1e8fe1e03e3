//go:build !unix

package flock

import "os"

// Non-unix fallback: locking degrades to a no-op, which restores the
// pre-flock behaviour — single-process use is still fully correct (every
// store has its own in-process mutex); only cross-process write/compact
// coordination loses its guarantee.

func Lock(path string) (release func(), err error) { return func() {}, nil }

func TryLock(f *os.File) (bool, error) { return true, nil }

func LockFile(f *os.File) error { return nil }
