// Package spin provides the low-level synchronization primitives shared by
// every transactional layer in this repository: versioned sequence locks,
// yielding exponential backoff, cache-line padding, and the contention
// counters used as the cache-miss proxy metric of Figure 5.6.
//
// All busy-waits in the repository go through Backoff, which always yields
// to the scheduler. This is mandatory for correctness when GOMAXPROCS=1
// (a spinning goroutine would otherwise starve the lock holder forever) and
// harmless on many-core machines.
package spin

import (
	"runtime"
	"sync/atomic"
)

// CacheLineSize is the assumed size of a cache line. Request slots and lock
// stripes are padded to this size to avoid false sharing, mirroring the
// cache-aligned request arrays of RTC and RInval.
const CacheLineSize = 64

// Pad occupies one cache line. Embed it between fields that are written by
// different goroutines.
type Pad [CacheLineSize]byte

// Backoff is a yielding exponential backoff. The zero value is ready to use.
//
// Wait yields at least once per call, so a loop of the form
//
//	var b spin.Backoff
//	for !try() { b.Wait() }
//
// cannot starve other goroutines even on a single-processor runtime.
type Backoff struct {
	n uint
}

// maxBackoffIters bounds the busy iterations between yields.
const maxBackoffIters = 1 << 8

// Wait spins for an exponentially growing number of iterations and then
// yields the processor.
func (b *Backoff) Wait() {
	iters := uint(1) << b.n
	if b.n < 8 {
		b.n++
	}
	for i := uint(0); i < iters && i < maxBackoffIters; i++ {
		spinHint()
	}
	runtime.Gosched()
}

// Reset restores the backoff to its initial (shortest) delay.
func (b *Backoff) Reset() { b.n = 0 }

// spinHint is a tiny delay standing in for a PAUSE instruction.
//
//go:noinline
func spinHint() {}

// SeqLock is a versioned sequence lock: even values mean unlocked, odd values
// mean locked. The version increases by one on every acquire and release, so
// readers can detect intervening writers by comparing versions. This is the
// global timestamped lock of NOrec, TML, RTC and RInval.
type SeqLock struct {
	v atomic.Uint64
}

// Load returns the current version.
func (l *SeqLock) Load() uint64 { return l.v.Load() }

// IsLocked reports whether version v denotes a held lock.
func IsLocked(v uint64) bool { return v&1 == 1 }

// TryLock attempts to acquire the lock by advancing version from the observed
// even value old to old+1. It fails if the lock changed or is held.
func (l *SeqLock) TryLock(old uint64) bool {
	if IsLocked(old) {
		return false
	}
	return l.v.CompareAndSwap(old, old+1)
}

// Lock spins (yielding) until the lock is acquired and returns the version
// it observed before acquiring (the even value that was replaced).
func (l *SeqLock) Lock(c *Counters) uint64 {
	var b Backoff
	for {
		old := l.v.Load()
		if !IsLocked(old) {
			if l.v.CompareAndSwap(old, old+1) {
				return old
			}
			c.IncCAS()
		}
		c.IncSpin()
		b.Wait()
	}
}

// Unlock releases the lock, advancing the version to the next even value.
// It panics if the lock is not held.
func (l *SeqLock) Unlock() {
	v := l.v.Load()
	if !IsLocked(v) {
		panic("spin: Unlock of unlocked SeqLock")
	}
	l.v.Store(v + 1)
}

// UnlockUnchanged releases the lock restoring the pre-acquisition version,
// for aborted critical sections that published nothing (readers holding the
// old version stay valid). It panics if the lock is not held.
func (l *SeqLock) UnlockUnchanged() {
	v := l.v.Load()
	if !IsLocked(v) {
		panic("spin: UnlockUnchanged of unlocked SeqLock")
	}
	l.v.Store(v - 1)
}

// WaitUnlocked spins (yielding) until the version is even, and returns it.
func (l *SeqLock) WaitUnlocked(c *Counters) uint64 {
	var b Backoff
	for {
		v := l.v.Load()
		if !IsLocked(v) {
			return v
		}
		c.IncSpin()
		b.Wait()
	}
}

// Counters aggregates the contention events used as the portable proxy for
// the hardware cache-miss counters of Figure 5.6: every failed CAS and every
// spin iteration on a shared lock is, on real hardware, a coherence miss.
type Counters struct {
	CASFailures atomic.Uint64 // compare-and-swap attempts that lost a race
	Spins       atomic.Uint64 // wait iterations on a held lock
}

// IncCAS records one lost compare-and-swap race. A nil receiver discards the
// event, so uninstrumented call sites can pass a nil *Counters.
func (c *Counters) IncCAS() {
	if c != nil {
		c.CASFailures.Add(1)
	}
}

// IncSpin records one wait iteration on a held lock. A nil receiver discards
// the event.
func (c *Counters) IncSpin() {
	if c != nil {
		c.Spins.Add(1)
	}
}

// Snapshot returns the current counter values.
func (c *Counters) Snapshot() (casFailures, spins uint64) {
	return c.CASFailures.Load(), c.Spins.Load()
}

// Reset zeroes the counters.
func (c *Counters) Reset() {
	c.CASFailures.Store(0)
	c.Spins.Store(0)
}
