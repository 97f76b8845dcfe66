// Package norec implements NOrec [Dalessandro, Spear & Scott, PPoPP 2010]:
// a lazy STM with no ownership records, a single global timestamped lock,
// and value-based validation. NOrec is the base algorithm extended by OTB's
// integration framework (Chapter 4) and by Remote Transaction Commit
// (Chapter 5).
//
// Protocol summary:
//   - Begin: wait for an even global timestamp and snapshot it.
//   - Read: return buffered write if any; otherwise read the cell and, if
//     the timestamp moved, re-run value-based validation until a consistent
//     snapshot is obtained (guaranteeing opacity).
//   - Commit (writers): CAS the timestamp from the snapshot to odd,
//     re-validating on failure; publish the redo log; release (even).
//     Read-only transactions commit without any shared-memory writes.
package norec

import (
	"context"
	"sync"

	"repro/internal/abort"
	"repro/internal/chaos/failpoint"
	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/spin"
	"repro/internal/stm"
)

// Failpoints on the NOrec validation and commit paths.
var (
	// fpValidateMid fires inside value-based validation — lock-free, so any
	// action is recoverable.
	fpValidateMid = failpoint.New("norec.validate.mid")
	// fpCommitLocked fires with the global sequence lock held, before the
	// redo log is published; recovery must restore the pre-lock timestamp.
	fpCommitLocked = failpoint.New("norec.commit.locked")
)

// STM is a NOrec instance. Transactions from different STM instances are
// not synchronized with each other.
type STM struct {
	// clock is NOrec's single serialization point: every writer commit CASes
	// it, so unlike TL2's version clock it cannot be sharded (see DESIGN.md).
	// Padding keeps it alone on its cache line so the adjacent counters do
	// not steal it from committers.
	clock spin.SeqLock
	_     [spin.CacheLineSize - 8]byte
	ctr   spin.Counters
	*cm.Core
	pool sync.Pool
}

// New creates a NOrec instance.
func New() *STM {
	s := &STM{Core: cm.NewCore("NOrec")}
	s.pool.New = func() any { return &tx{s: s, h: s.NewHandle()} }
	return s
}

// Name implements stm.Algorithm.
func (s *STM) Name() string { return "NOrec" }

// Counters implements stm.Algorithm.
func (s *STM) Counters() *spin.Counters { return &s.ctr }

// Stop implements stm.Algorithm. NOrec has no background goroutines.
func (s *STM) Stop() {}

// Clock exposes the global sequence lock for layers that extend NOrec
// (the OTB integration context).
func (s *STM) Clock() *spin.SeqLock { return &s.clock }

// tx is a NOrec transaction descriptor, reused across attempts; it
// implements cm.Tx.
type tx struct {
	s          *STM
	h          cm.Handle
	snapshot   uint64
	holdsClock bool // global lock held (commit in progress)
	reads      []stm.ReadEntry
	writes     stm.WriteSet
	fn         func(stm.Tx)
}

// Atomic implements stm.Algorithm.
func (s *STM) Atomic(fn func(stm.Tx)) { s.AtomicCtx(nil, fn) }

// AtomicCtx implements stm.AlgorithmCtx: Atomic observing ctx. The
// descriptor returns to its pool even when fn (or an armed failpoint)
// panics — the rollback path has already released the global lock by then.
func (s *STM) AtomicCtx(ctx context.Context, fn func(stm.Tx)) error {
	t := s.pool.Get().(*tx)
	t.fn = fn
	defer func() {
		t.fn = nil
		t.reads = t.reads[:0]
		t.writes.Reset()
		s.pool.Put(t)
	}()
	return t.h.Run(ctx, nil, t)
}

// Begin implements cm.Tx: start one attempt.
func (t *tx) Begin() {
	t.reads = t.reads[:0]
	t.writes.Reset()
	t.snapshot = t.s.clock.WaitUnlocked(&t.s.ctr)
}

// Run implements cm.Tx.
func (t *tx) Run() { t.fn(t) }

// Rollback implements cm.Tx: release the global lock if this attempt died
// holding it (an armed failpoint or foreign panic between lock and publish).
// Nothing was published, so the pre-lock timestamp is restored — concurrent
// readers saw only an odd (locked) clock and re-validate against unchanged
// memory.
func (t *tx) Rollback(abort.Reason) {
	if t.holdsClock {
		t.holdsClock = false
		t.s.clock.UnlockUnchanged()
	}
}

// Read implements stm.Tx with NOrec's post-read validation loop.
func (t *tx) Read(c *mem.Cell) uint64 {
	if v, ok := t.writes.Get(c); ok {
		return v
	}
	v := c.Load()
	for t.snapshot != t.s.clock.Load() {
		t.snapshot = t.validate()
		v = c.Load()
	}
	t.reads = append(t.reads, stm.ReadEntry{Cell: c, Val: v})
	return v
}

// Write implements stm.Tx; writes are buffered until commit.
func (t *tx) Write(c *mem.Cell, v uint64) {
	t.writes.Put(c, v)
}

// validate re-checks every read value against memory, retrying until it
// observes a quiescent (even, unchanged) timestamp. It returns the
// validated timestamp, or aborts the transaction on a value mismatch.
func (t *tx) validate() uint64 {
	start := t.s.Profile().Now()
	defer t.s.Profile().AddValidation(start)
	fpValidateMid.Hit()
	var b spin.Backoff
	for {
		ts := t.s.clock.Load()
		if spin.IsLocked(ts) {
			t.s.ctr.IncSpin()
			b.Wait()
			continue
		}
		for i := range t.reads {
			if t.reads[i].Cell.Load() != t.reads[i].Val {
				t.h.Trace().ValidateFail(t.reads[i].Cell.ID())
				abort.Retry(abort.Conflict)
			}
		}
		if ts == t.s.clock.Load() {
			t.h.Trace().Validated()
			return ts
		}
	}
}

// Commit implements cm.Tx: publish the redo log under the global lock.
// Read-only transactions return immediately: their incremental validation
// already serialized them at the last validated snapshot.
func (t *tx) Commit() {
	if t.writes.Len() == 0 {
		return
	}
	// The commit timer is paused around validate so validation time is not
	// double-charged (validate charges itself to the validation bucket).
	start := t.s.Profile().Now()
	for !t.s.clock.TryLock(t.snapshot) {
		t.s.ctr.IncCAS()
		t.s.Profile().AddCommit(start)
		t.snapshot = t.validate()
		start = t.s.Profile().Now()
	}
	t.holdsClock = true
	fpCommitLocked.Hit()
	t.writes.Publish()
	t.s.clock.Unlock()
	t.holdsClock = false
	t.s.Profile().AddCommit(start)
}

var _ stm.Algorithm = (*STM)(nil)
