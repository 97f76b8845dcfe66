// Package glock implements the coarse global-lock "STM": every atomic block
// runs under a single mutex. The paper uses this as the sequential baseline
// (RSTM's CGL) for single-thread overhead comparisons; the harness also uses
// it as the reference executor when checking other algorithms' results.
package glock

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

// lockTraceKey tags flight-recorder lock events for the single global
// mutex, which has no per-cell identity.
const lockTraceKey = 1<<60 | 2

// fpCommitPre fires at the end of the body, with the global mutex held and
// in-place writes applied; recovery must replay the undo log (the deferred
// mutex unlock releases the lock).
var fpCommitPre = failpoint.New("glock.commit.pre")

// STM is a global-lock instance.
type STM struct {
	mu  sync.Mutex
	ctr spin.Counters
	*cm.Core
	// h is shared by all transactions: the global mutex already serializes
	// them, so one telemetry shard and one recorder ring see no contention.
	h cm.Handle
}

// New creates a global-lock instance. Under the global lock only explicit
// user retries abort, so escalation triggers only for transactions that
// retry past the budget.
func New() *STM {
	s := &STM{Core: cm.NewCore("CGL")}
	s.h = s.NewHandle()
	return s
}

// Name implements stm.Algorithm.
func (s *STM) Name() string { return "CGL" }

// Counters implements stm.Algorithm.
func (s *STM) Counters() *spin.Counters { return &s.ctr }

// Stop implements stm.Algorithm; there are no background goroutines.
func (s *STM) Stop() {}

// tx executes reads and writes in place under the global lock, keeping an
// undo log so explicit user retries can roll back. It implements cm.Tx;
// descriptors are pooled (the global mutex serializes transactions, but each
// caller still needs its own undo log between Get and Put).
type tx struct {
	s    *STM
	undo []stm.WriteEntry
	fn   func(stm.Tx)
}

var txPool = sync.Pool{New: func() any { return &tx{} }}

// Begin implements cm.Tx: start one attempt.
func (t *tx) Begin() {
	t.undo = t.undo[:0]
	t.s.h.Trace().Lock(lockTraceKey)
}

// Run implements cm.Tx: writes apply in place.
func (t *tx) Run() { t.fn(t) }

// Commit implements cm.Tx: nothing to publish.
func (t *tx) Commit() {
	fpCommitPre.Hit()
	t.s.h.Trace().Unlock(lockTraceKey)
}

// Rollback implements cm.Tx: replay the undo log.
func (t *tx) Rollback(abort.Reason) {
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.undo[i].Cell.Store(t.undo[i].Val)
	}
	t.s.h.Trace().Unlock(lockTraceKey)
}

// Read implements stm.Tx.
func (t *tx) Read(c *mem.Cell) uint64 { return c.Load() }

// Write implements stm.Tx.
func (t *tx) Write(c *mem.Cell, v uint64) {
	t.undo = append(t.undo, stm.WriteEntry{Cell: c, Val: c.Load()})
	c.Store(v)
}

// Atomic implements stm.Algorithm.
func (s *STM) Atomic(fn func(stm.Tx)) { s.AtomicCtx(nil, fn) }

// AtomicCtx implements stm.AlgorithmCtx: Atomic observing ctx. The global
// mutex is released by defer on every exit, including foreign panics; the
// rollback path replays the undo log first.
func (s *STM) AtomicCtx(ctx context.Context, fn func(stm.Tx)) error {
	t := txPool.Get().(*tx)
	t.s = s
	t.fn = fn
	defer func() {
		t.s = nil
		t.fn = nil
		t.undo = t.undo[:0]
		txPool.Put(t)
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.Run(ctx, nil, t)
}

var _ stm.Algorithm = (*STM)(nil)
