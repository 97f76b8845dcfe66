// Package integrate implements the Chapter 4 framework: STM contexts that
// let one transaction mix traditional memory reads/writes with OTB data
// structure operations, preserving atomicity and opacity across both.
//
// The contexts extend the repository's own NOrec and TL2, which call the
// OTB-DS hooks of the transaction's otb.Tx at their validation and commit
// points (see stm.Semantic). This package adds what a mixed transaction has
// beyond the memory protocol: the func(*Ctx) body, the epoch pin around each
// attempt, and OTB-TL2's per-read semantic co-validation.
//
//   - OTBNOrec extends NOrec. The single global lock synchronizes both
//     memory and semantic commits, so semantic locks are skipped entirely
//     and post-read validation co-validates memory values and semantic
//     read sets (both value-based and incremental).
//   - OTBTL2 extends TL2. Every memory read and every data structure
//     operation validates the semantic read sets with lock sampling and then
//     the memory read set, so both hold at one instant; commit interleaves
//     orec locking with the OTB PreCommit/OnCommit/PostCommit protocol.
//
// Usage:
//
//	alg := integrate.NewOTBNOrec()
//	set := otb.NewListSet()
//	alg.Atomic(func(ctx *integrate.Ctx) {
//		if set.Add(ctx.Sem(), x) {
//			ctx.Write(nSuccess, ctx.Read(nSuccess)+1)
//		}
//	})
package integrate

import (
	"context"
	"sync"

	"repro/internal/abort"
	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/otb"
	"repro/internal/spin"
	"repro/internal/stm"
	"repro/internal/stm/norec"
	"repro/internal/stm/tl2"
)

// Ctx is the transaction handle passed to atomic blocks: STM memory access
// plus the semantic transaction for OTB operations.
type Ctx struct {
	memory stm.Tx
	sem    *otb.Tx
}

// Read reads a memory cell transactionally.
func (c *Ctx) Read(cell *mem.Cell) uint64 { return c.memory.Read(cell) }

// Write writes a memory cell transactionally.
func (c *Ctx) Write(cell *mem.Cell, v uint64) { c.memory.Write(cell, v) }

// Sem returns the semantic (OTB) transaction, passed to OTB structure
// operations.
func (c *Ctx) Sem() *otb.Tx { return c.sem }

// Algorithm is an integrated OTB+STM algorithm.
type Algorithm interface {
	Name() string
	Atomic(fn func(*Ctx))
	// AtomicCtx is Atomic observing a context; see stm.AlgorithmCtx.
	AtomicCtx(ctx context.Context, fn func(*Ctx)) error
	Counters() *spin.Counters
	Stop()
}

// protocol is the memory half of an integrated descriptor: *norec.Tx or
// *tl2.Tx, already wired to the descriptor's otb.Tx.
type protocol interface {
	Begin()
	Commit()
	Rollback(abort.Reason)
	Reset()
	Handle() *cm.Handle
}

// desc is one integrated transaction descriptor; it implements cm.Tx by
// adding the body and the epoch pin to its STM's protocol. The semantic
// transaction pins an epoch guard so the OTB nodes it traverses cannot be
// recycled mid-attempt.
type desc[P protocol] struct {
	tx  P
	fn  func(*Ctx)
	ctx Ctx
}

// newDesc ties sem to tx's span; the body reads memory through memory (tx
// itself, or a wrapper adding per-read work).
func newDesc[P protocol](tx P, sem *otb.Tx, memory stm.Tx) *desc[P] {
	// The semantic layer traces into the descriptor's track, so OTB
	// operations and memory events share one span.
	sem.SetTraceLocal(tx.Handle().Trace())
	return &desc[P]{tx: tx, ctx: Ctx{memory: memory, sem: sem}}
}

// Begin implements cm.Tx.
func (d *desc[P]) Begin() {
	d.ctx.sem.Reset()
	d.ctx.sem.Pin()
	d.tx.Begin()
}

// Run implements cm.Tx.
func (d *desc[P]) Run() { d.fn(&d.ctx) }

// Commit implements cm.Tx.
func (d *desc[P]) Commit() {
	d.tx.Commit()
	d.ctx.sem.Unpin()
}

// Rollback implements cm.Tx: release the semantic locks, then the memory
// ones, in the reverse of the commit's acquisition order.
func (d *desc[P]) Rollback(r abort.Reason) {
	d.ctx.sem.Rollback()
	d.ctx.sem.Unpin()
	d.tx.Rollback(r)
}

// run executes fn on a descriptor from pool. The descriptor returns to its
// pool even when fn (or an armed failpoint) panics — the rollback path has
// already unwound both layers.
func run[P protocol](ctx context.Context, pool *sync.Pool, fn func(*Ctx)) error {
	d := pool.Get().(*desc[P])
	d.fn = fn
	defer func() {
		d.fn = nil
		d.ctx.sem.Reset()
		d.tx.Reset()
		pool.Put(d)
	}()
	return d.tx.Handle().Run(ctx, nil, d)
}

// OTBNOrec is the NOrec-based integration context.
type OTBNOrec struct {
	*norec.STM
	// semanticLocks ablates the paper's OTB-NOrec optimization of skipping
	// fine-grained semantic locks under the global lock: when set, commits
	// run the full PreCommit/PostCommit protocol anyway, measuring the cost
	// the optimization saves.
	semanticLocks bool
	pool          sync.Pool
}

// NewOTBNOrec creates an OTB-NOrec instance.
func NewOTBNOrec() *OTBNOrec {
	s := &OTBNOrec{STM: norec.NewNamed("OTB-NOrec")}
	s.pool.New = func() any {
		sem := otb.NewTx(s.Counters())
		tx := s.NewTx(sem, s.semanticLocks)
		// onOperationValidate: identical to onReadAccess — wait for a
		// stable global timestamp while co-validating memory and semantics.
		sem.SetValidator(func(*otb.Tx) { tx.Validate() })
		return newDesc(tx, sem, tx)
	}
	return s
}

// NewOTBNOrecSemanticLocks creates an instance with the lock-granularity
// optimization ablated (semantic locks are acquired even though the global
// lock subsumes them). For the ablation benches only.
func NewOTBNOrecSemanticLocks() *OTBNOrec {
	s := NewOTBNOrec()
	s.semanticLocks = true
	return s
}

// Atomic implements Algorithm.
func (s *OTBNOrec) Atomic(fn func(*Ctx)) { s.AtomicCtx(nil, fn) }

// AtomicCtx implements Algorithm: Atomic observing ctx.
func (s *OTBNOrec) AtomicCtx(ctx context.Context, fn func(*Ctx)) error {
	return run[*norec.Tx](ctx, &s.pool, fn)
}

// OTBTL2 is the TL2-based integration context.
type OTBTL2 struct {
	*tl2.STM
	pool sync.Pool
}

// NewOTBTL2 creates an OTB-TL2 instance.
func NewOTBTL2() *OTBTL2 {
	s := &OTBTL2{STM: tl2.NewNamed("OTB-TL2")}
	s.pool.New = func() any {
		sem := otb.NewTx(s.Counters())
		m := &tl2Memory{Tx: s.NewTx(sem), sem: sem}
		// onOperationValidate: identical to onReadAccess.
		sem.SetValidator(func(*otb.Tx) { m.onReadAccess() })
		return newDesc(m.Tx, sem, m)
	}
	return s
}

// Atomic implements Algorithm.
func (s *OTBTL2) Atomic(fn func(*Ctx)) { s.AtomicCtx(nil, fn) }

// AtomicCtx implements Algorithm: Atomic observing ctx.
func (s *OTBTL2) AtomicCtx(ctx context.Context, fn func(*Ctx)) error {
	return run[*tl2.Tx](ctx, &s.pool, fn)
}

// tl2Memory is OTB-TL2's memory access: TL2's sampled read, then the
// paper's onReadAccess.
type tl2Memory struct {
	*tl2.Tx
	sem *otb.Tx
}

// Read implements stm.Tx.
func (m *tl2Memory) Read(c *mem.Cell) uint64 {
	v := m.Tx.Read(c)
	m.onReadAccess()
	return v
}

// onReadAccess validates every attached set with lock sampling, then the
// memory read set. In that order both hold at the instant of the semantic
// validation: TL2's reads are checked against its snapshot rv only, and a
// commit after rv may have changed the sets and a cell read at rv together.
func (m *tl2Memory) onReadAccess() {
	if !m.sem.ValidateAllWithLocks() {
		abort.Retry(abort.Conflict)
	}
	m.Revalidate()
}
