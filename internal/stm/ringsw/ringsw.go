// Package ringsw implements the single-writer variant of RingSTM [Spear et
// al., SPAA 2008]: commits append a bloom filter of the write set to a
// global ring, and readers validate by intersecting their read filter with
// the ring entries that committed after their snapshot. RingSW is one of
// the four algorithms in the Chapter 5 microbenchmark comparison.
//
// Logical time is the version of the single writer lock (as in NOrec), so a
// ring entry committed at even timestamp ts occupies slot (ts/2) mod ring
// size. Readers that fall more than a ring behind abort on overflow.
package ringsw

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/abort"
	"repro/internal/bloom"
	"repro/internal/chaos/failpoint"
	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/spin"
	"repro/internal/stm"
)

// fpCommitLocked fires with the writer lock held, before the ring slot is
// touched or anything is published; recovery must restore the pre-lock
// timestamp so the ring and clock stay consistent.
var fpCommitLocked = failpoint.New("ringsw.commit.locked")

// ringSize is the number of retained commit filters.
const ringSize = 1024

// slot is one ring entry: the commit timestamp and the bloom filter of the
// committed write set. Words are atomic so concurrent overwrite on
// wraparound is race-free; readers detect reuse through the ts check.
type slot struct {
	ts     atomic.Uint64
	filter [bloom.Words]atomic.Uint64
}

// STM is a RingSW instance.
type STM struct {
	clock spin.SeqLock
	ring  [ringSize]slot
	ctr   spin.Counters
	*cm.Core
	pool sync.Pool
}

// New creates a RingSW instance.
func New() *STM {
	s := &STM{Core: cm.NewCore("RingSW")}
	s.pool.New = func() any { return &tx{s: s, h: s.NewHandle()} }
	return s
}

// Name implements stm.Algorithm.
func (s *STM) Name() string { return "RingSW" }

// Counters implements stm.Algorithm.
func (s *STM) Counters() *spin.Counters { return &s.ctr }

// Stop implements stm.Algorithm; RingSW has no background goroutines.
func (s *STM) Stop() {}

// tx is a RingSW transaction descriptor.
type tx struct {
	s          *STM
	h          cm.Handle
	snapshot   uint64
	holdsClock bool // writer lock held (commit in progress)
	readF      bloom.Filter
	writeF     bloom.Filter
	writes     stm.WriteSet
	fn         func(stm.Tx)
}

// Atomic implements stm.Algorithm.
func (s *STM) Atomic(fn func(stm.Tx)) { s.AtomicCtx(nil, fn) }

// AtomicCtx implements stm.AlgorithmCtx: Atomic observing ctx. The
// descriptor returns to its pool even when fn (or an armed failpoint)
// panics — the rollback path has already released the writer lock by then.
func (s *STM) AtomicCtx(ctx context.Context, fn func(stm.Tx)) error {
	t := s.pool.Get().(*tx)
	t.fn = fn
	defer func() {
		t.fn = nil
		t.readF.Clear()
		t.writeF.Clear()
		t.writes.Reset()
		s.pool.Put(t)
	}()
	return t.h.Run(ctx, nil, t)
}

// Begin implements cm.Tx: start one attempt.
func (t *tx) Begin() {
	t.readF.Clear()
	t.writeF.Clear()
	t.writes.Reset()
	t.snapshot = t.s.clock.WaitUnlocked(&t.s.ctr)
}

// Run implements cm.Tx.
func (t *tx) Run() { t.fn(t) }

// Rollback implements cm.Tx: release the writer lock if this attempt died
// holding it. The ring slot was not yet touched and nothing was published,
// so restoring the pre-lock timestamp leaves readers' view unchanged.
func (t *tx) Rollback(abort.Reason) {
	if t.holdsClock {
		t.holdsClock = false
		t.s.clock.UnlockUnchanged()
	}
}

// Read implements stm.Tx: record the key in the read filter, read the value,
// and re-validate against the ring while the logical clock moves.
func (t *tx) Read(c *mem.Cell) uint64 {
	if v, ok := t.writes.Get(c); ok {
		return v
	}
	t.readF.Add(c.ID())
	v := c.Load()
	for t.snapshot != t.s.clock.Load() {
		t.validateRing()
		v = c.Load()
	}
	return v
}

// Write implements stm.Tx; writes are buffered and recorded in the write
// filter for publication on the ring.
func (t *tx) Write(c *mem.Cell, v uint64) {
	t.writeF.Add(c.ID())
	t.writes.Put(c, v)
}

// validateRing intersects the read filter with every ring entry newer than
// the snapshot, aborting on a hit or on ring overflow, then advances the
// snapshot to a quiescent timestamp.
func (t *tx) validateRing() {
	start := t.s.Profile().Now()
	defer t.s.Profile().AddValidation(start)
	for {
		ts := t.s.clock.WaitUnlocked(&t.s.ctr)
		if ts == t.snapshot {
			return
		}
		if (ts-t.snapshot)/2 > ringSize {
			abort.Retry(abort.Conflict) // fell a full ring behind
		}
		for e := t.snapshot + 2; e <= ts; e += 2 {
			sl := &t.s.ring[(e/2)%ringSize]
			if sl.ts.Load() != e {
				abort.Retry(abort.Conflict) // slot reused under us
			}
			if t.intersectsSlot(sl) {
				// Bloom intersection cannot name the cell; the ring slot's
				// commit timestamp is the closest attribution available.
				t.h.Trace().ValidateFail(0)
				abort.Retry(abort.Conflict)
			}
			if sl.ts.Load() != e {
				abort.Retry(abort.Conflict)
			}
		}
		if t.s.clock.Load() == ts {
			t.snapshot = ts
			t.h.Trace().Validated()
			return
		}
	}
}

// intersectsSlot reports whether the transaction's read filter shares a bit
// with the slot's commit filter.
func (t *tx) intersectsSlot(sl *slot) bool {
	for i := range t.readF {
		if t.readF[i]&sl.filter[i].Load() != 0 {
			return true
		}
	}
	return false
}

// Commit implements cm.Tx: acquire the writer lock (re-validating on
// contention), append the write filter to the ring, publish the redo log,
// and release the lock.
func (t *tx) Commit() {
	if t.writes.Len() == 0 {
		return
	}
	start := t.s.Profile().Now()
	for !t.s.clock.TryLock(t.snapshot) {
		t.s.ctr.IncCAS()
		t.s.Profile().AddCommit(start)
		t.validateRing()
		start = t.s.Profile().Now()
	}
	t.holdsClock = true
	fpCommitLocked.Hit()
	commitTS := t.snapshot + 2
	sl := &t.s.ring[(commitTS/2)%ringSize]
	sl.ts.Store(0) // invalidate slot while its filter is rewritten
	for i := range t.writeF {
		sl.filter[i].Store(t.writeF[i])
	}
	sl.ts.Store(commitTS)
	t.writes.Publish()
	t.s.clock.Unlock()
	t.holdsClock = false
	t.s.Profile().AddCommit(start)
}

var _ stm.Algorithm = (*STM)(nil)
