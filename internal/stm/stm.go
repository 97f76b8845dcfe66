// Package stm defines the software transactional memory interface shared by
// all algorithm implementations (NOrec, TL2, TML, RingSW, InvalSTM, the
// coarse global lock, RTC and RInval), together with the read/write-set
// building blocks and the critical-path profiler used by Figures 6.2–6.3.
//
// A transaction body is a func(Tx). Algorithm.Atomic runs it with that
// algorithm's concurrency control, retrying on conflict until it commits:
//
//	alg := norec.New()
//	alg.Atomic(func(tx stm.Tx) {
//		v := tx.Read(cell)
//		tx.Write(cell, v+1)
//	})
//
// Bodies must be safe to re-execute: aborted attempts unwind through a
// recovered panic and all transactional effects are discarded.
package stm

import (
	"context"
	"time"

	"repro/internal/mem"
	"repro/internal/spin"
)

// Tx is the interface a transaction body uses to access shared memory.
type Tx interface {
	// Read returns the value of c as of this transaction's snapshot.
	Read(c *mem.Cell) uint64
	// Write buffers (or, for in-place algorithms, performs) a store to c.
	Write(c *mem.Cell, v uint64)
}

// Algorithm is a software transactional memory implementation.
//
// Atomic may be called concurrently from any number of goroutines. Stop
// releases background resources (server goroutines in RTC/RInval); it is a
// no-op for pure client-side algorithms.
type Algorithm interface {
	// Name returns the algorithm's short name as used in the paper's plots.
	Name() string
	// Atomic executes fn transactionally, retrying until commit.
	Atomic(fn func(Tx))
	// Counters exposes the contention counters (CAS failures, lock spins)
	// used as the cache-miss proxy of Figure 5.6.
	Counters() *spin.Counters
	// Stop shuts down any background goroutines owned by the algorithm.
	Stop()
}

// AlgorithmCtx is implemented by algorithms whose transactions can observe
// a context: AtomicCtx gives up (with the context's error) when ctx is
// cancelled or its deadline expires instead of retrying forever. Every
// algorithm in this repository implements it; the interface is separate
// from Algorithm so external implementations are not forced to.
type AlgorithmCtx interface {
	Algorithm
	// AtomicCtx executes fn transactionally, retrying until commit or until
	// ctx is done, in which case the attempt is rolled back (all locks
	// released, no effects visible) and the context's error returned. A nil
	// ctx behaves exactly like Atomic.
	AtomicCtx(ctx context.Context, fn func(Tx)) error
}

// Semantic is the transactional-data-structure side of a Chapter 4
// integration (implemented by *otb.Tx): the OTB-DS hooks NOrec and TL2 call
// at their own validation and commit points when a layer extends them. Plain
// STM transactions carry none.
type Semantic interface {
	// HasSemanticWrites reports pending semantic writes; a transaction with
	// neither these nor memory writes commits read-only.
	HasSemanticWrites() bool
	// ValidateAllWithoutLocks checks the semantic read sets only, for an STM
	// whose own lock already excludes every semantic writer.
	ValidateAllWithoutLocks() bool
	// ValidateAllWithLocks also fails on semantic locks held by others.
	ValidateAllWithLocks() bool
	// PreCommitAll acquires the semantic locks, aborting if one is busy.
	PreCommitAll()
	// OnCommitAll publishes the semantic write sets. It cannot fail.
	OnCommitAll()
	// PostCommitAll releases the semantic locks.
	PostCommitAll()
}

// ReadEntry records one transactional read for value-based validation.
type ReadEntry struct {
	Cell *mem.Cell
	Val  uint64
}

// WriteEntry records one buffered transactional write.
type WriteEntry struct {
	Cell *mem.Cell
	Val  uint64
}

// writeMapThreshold is the write-set size above which an index map is built
// for O(1) read-after-write lookups.
const writeMapThreshold = 8

// WriteSet is a redo log with read-after-write lookup. Small sets use linear
// search; large sets build a map keyed by cell.
type WriteSet struct {
	entries []WriteEntry
	index   map[*mem.Cell]int
}

// Len returns the number of distinct cells written.
func (w *WriteSet) Len() int { return len(w.entries) }

// Entries returns the buffered writes in program order (latest value per
// cell). The slice is owned by the WriteSet.
func (w *WriteSet) Entries() []WriteEntry { return w.entries }

// Put buffers a write of v to c, overwriting any earlier write to c.
func (w *WriteSet) Put(c *mem.Cell, v uint64) {
	if i, ok := w.find(c); ok {
		w.entries[i].Val = v
		return
	}
	w.entries = append(w.entries, WriteEntry{Cell: c, Val: v})
	if w.index != nil {
		w.index[c] = len(w.entries) - 1
	} else if len(w.entries) > writeMapThreshold {
		w.index = make(map[*mem.Cell]int, 2*len(w.entries))
		for i, e := range w.entries {
			w.index[e.Cell] = i
		}
	}
}

// Get returns the buffered value for c, if any.
func (w *WriteSet) Get(c *mem.Cell) (uint64, bool) {
	if i, ok := w.find(c); ok {
		return w.entries[i].Val, true
	}
	return 0, false
}

func (w *WriteSet) find(c *mem.Cell) (int, bool) {
	if w.index != nil {
		i, ok := w.index[c]
		return i, ok
	}
	for i := range w.entries {
		if w.entries[i].Cell == c {
			return i, true
		}
	}
	return 0, false
}

// Publish stores every buffered value to shared memory.
func (w *WriteSet) Publish() {
	for i := range w.entries {
		w.entries[i].Cell.Store(w.entries[i].Val)
	}
}

// Reset empties the write set, retaining capacity.
func (w *WriteSet) Reset() {
	w.entries = w.entries[:0]
	w.index = nil
}

// Profile accumulates per-phase wall time on the transaction critical path.
// It backs the validation/commit/other breakdown of Figures 6.2 and 6.3.
// A nil *Profile disables instrumentation at negligible cost.
type Profile struct {
	ValidationNS int64 // time spent validating read sets
	CommitNS     int64 // time spent in commit (lock, publish, unlock)
	TotalNS      int64 // total wall time inside Atomic
	Commits      uint64
	Aborts       uint64
	mu           spin.SeqLock // guards the fields above across goroutines
}

// Now returns the current time if profiling is enabled, else the zero time.
func (p *Profile) Now() time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

// add applies a delta under the profile's lock.
func (p *Profile) add(f func(*Profile)) {
	if p == nil {
		return
	}
	p.mu.Lock(nil)
	f(p)
	p.mu.Unlock()
}

// AddValidation charges the elapsed time since start to validation.
func (p *Profile) AddValidation(start time.Time) {
	if p == nil || start.IsZero() {
		return
	}
	d := time.Since(start).Nanoseconds()
	p.add(func(p *Profile) { p.ValidationNS += d })
}

// AddCommit charges the elapsed time since start to commit.
func (p *Profile) AddCommit(start time.Time) {
	if p == nil || start.IsZero() {
		return
	}
	d := time.Since(start).Nanoseconds()
	p.add(func(p *Profile) { p.CommitNS += d })
}

// AddTotal charges the elapsed time since start to the transaction total and
// records its outcome.
func (p *Profile) AddTotal(start time.Time, committed bool) {
	if p == nil || start.IsZero() {
		return
	}
	d := time.Since(start).Nanoseconds()
	p.add(func(p *Profile) {
		p.TotalNS += d
		if committed {
			p.Commits++
		} else {
			p.Aborts++
		}
	})
}

// ProfileSnapshot is a consistent copy of a Profile's counters.
type ProfileSnapshot struct {
	ValidationNS int64
	CommitNS     int64
	TotalNS      int64
	Commits      uint64
	Aborts       uint64
}

// OtherNS returns the time on the critical path spent outside validation
// and commit (the "other" bar of Figures 6.2–6.3), clamped at zero.
func (s ProfileSnapshot) OtherNS() int64 {
	o := s.TotalNS - s.ValidationNS - s.CommitNS
	if o < 0 {
		return 0
	}
	return o
}

// Snapshot returns a consistent copy of the accumulated profile.
func (p *Profile) Snapshot() ProfileSnapshot {
	if p == nil {
		return ProfileSnapshot{}
	}
	var out ProfileSnapshot
	p.mu.Lock(nil)
	out.ValidationNS = p.ValidationNS
	out.CommitNS = p.CommitNS
	out.TotalNS = p.TotalNS
	out.Commits = p.Commits
	out.Aborts = p.Aborts
	p.mu.Unlock()
	return out
}
