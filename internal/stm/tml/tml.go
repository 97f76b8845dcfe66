// Package tml implements TML (Transactional Mutex Lock) [Dalessandro et
// al., EuroPar 2010]: the minimal STM the paper cites as the inspiration for
// OTB's semi-optimistic priority queue. Readers run lock-free against a
// global sequence lock; the first write upgrades the transaction to the
// single writer, which then executes in place.
package tml

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

// fpCommitLocked fires at writer commit, with the global lock held and all
// writes already in place; recovery must replay the undo log and release.
var fpCommitLocked = failpoint.New("tml.commit.locked")

// STM is a TML instance.
type STM struct {
	clock spin.SeqLock
	ctr   spin.Counters
	*cm.Core
	pool sync.Pool
}

// New creates a TML instance.
func New() *STM {
	s := &STM{Core: cm.NewCore("TML")}
	s.pool.New = func() any { return &tx{s: s, h: s.NewHandle()} }
	return s
}

// Name implements stm.Algorithm.
func (s *STM) Name() string { return "TML" }

// Counters implements stm.Algorithm.
func (s *STM) Counters() *spin.Counters { return &s.ctr }

// Stop implements stm.Algorithm; TML has no background goroutines.
func (s *STM) Stop() {}

// tx is a TML transaction descriptor. Writers keep an undo log so that an
// explicit user abort can roll back the in-place writes (plain TML writers
// are irrevocable; the undo log generalizes that without changing the
// conflict behaviour).
type tx struct {
	s        *STM
	h        cm.Handle
	snapshot uint64
	writer   bool
	undo     []stm.WriteEntry
	fn       func(stm.Tx)
}

// Atomic implements stm.Algorithm.
func (s *STM) Atomic(fn func(stm.Tx)) { s.AtomicCtx(nil, fn) }

// AtomicCtx implements stm.AlgorithmCtx: Atomic observing ctx. The
// descriptor returns to its pool even when fn (or an armed failpoint)
// panics — the rollback path has already undone in-place writes and
// released the global lock by then.
func (s *STM) AtomicCtx(ctx context.Context, fn func(stm.Tx)) error {
	t := s.pool.Get().(*tx)
	t.fn = fn
	defer func() {
		t.fn = nil
		t.undo = t.undo[:0]
		s.pool.Put(t)
	}()
	return t.h.Run(ctx, nil, t)
}

// Begin implements cm.Tx: start one attempt.
func (t *tx) Begin() {
	t.writer = false
	t.undo = t.undo[:0]
	t.snapshot = t.s.clock.WaitUnlocked(&t.s.ctr)
}

// Run implements cm.Tx.
func (t *tx) Run() { t.fn(t) }

// Read implements stm.Tx. Readers abort if any writer committed (or is
// active) since their snapshot; the writer reads directly.
func (t *tx) Read(c *mem.Cell) uint64 {
	v := c.Load()
	if !t.writer && t.s.clock.Load() != t.snapshot {
		t.h.Trace().ValidateFail(c.ID())
		abort.Retry(abort.Conflict)
	}
	return v
}

// Write implements stm.Tx. The first write acquires the global lock; all
// writes are performed in place under it.
func (t *tx) Write(c *mem.Cell, v uint64) {
	if !t.writer {
		if !t.s.clock.TryLock(t.snapshot) {
			t.s.ctr.IncCAS()
			t.h.Trace().LockBusy(c.ID())
			abort.Retry(abort.LockBusy)
		}
		t.h.Trace().Lock(c.ID())
		t.writer = true
	}
	t.undo = append(t.undo, stm.WriteEntry{Cell: c, Val: c.Load()})
	c.Store(v)
}

// Commit implements cm.Tx: a writer releases the global lock, publishing its
// in-place writes.
func (t *tx) Commit() {
	if t.writer {
		fpCommitLocked.Hit()
		start := t.s.Profile().Now()
		t.s.clock.Unlock()
		t.s.Profile().AddCommit(start)
		t.writer = false
	}
}

// Rollback implements cm.Tx: restore in-place writes (reverse order) and
// release the lock.
func (t *tx) Rollback(abort.Reason) {
	if !t.writer {
		return
	}
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.undo[i].Cell.Store(t.undo[i].Val)
	}
	t.s.clock.Unlock()
	t.writer = false
}

var _ stm.Algorithm = (*STM)(nil)
