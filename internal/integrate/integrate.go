// Package integrate implements the Chapter 4 framework: STM contexts that
// let one transaction mix traditional memory reads/writes with OTB data
// structure operations, preserving atomicity and opacity across both.
//
// Two contexts are provided, mirroring the paper's case studies:
//
//   - OTBNOrec extends NOrec. The single global lock synchronizes both
//     memory and semantic commits, so semantic locks are skipped entirely
//     and post-read validation co-validates memory values and semantic
//     read sets (both value-based and incremental).
//   - OTBTL2 extends TL2. Memory uses ownership records; data structure
//     operations validate semantically with lock sampling, and commit
//     interleaves orec locking with the OTB PreCommit/OnCommit/PostCommit
//     protocol.
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
	"sync/atomic"

	"repro/internal/abort"
	"repro/internal/chaos/failpoint"
	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/otb"
	"repro/internal/spin"
	"repro/internal/stm"
)

// norecClockTraceKey tags flight-recorder lock events for OTB-NOrec's
// single global commit lock, which has no per-cell identity.
const norecClockTraceKey = 1<<60 | 3

// tl2OrecTraceKey tags an ownership-record index so orec lock events
// cannot collide with cell IDs or semantic keys in the conflict table.
func tl2OrecTraceKey(idx int) uint64 { return uint64(idx) | 1<<62 }

// Failpoints on the integrated commit paths.
var (
	// fpNOrecCommitLocked fires with OTB-NOrec's global lock held, before
	// any memory or semantic publication.
	fpNOrecCommitLocked = failpoint.New("otbnorec.commit.locked")
	// fpTL2CommitLocked fires with both the memory orecs and the semantic
	// locks held, before anything is published — the deepest lock nesting in
	// the repository; recovery unwinds both layers.
	fpTL2CommitLocked = failpoint.New("otbtl2.commit.locked")
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

// ---------------------------------------------------------------------------
// OTB-NOrec

// OTBNOrec is the NOrec-based integration context.
type OTBNOrec struct {
	clock spin.SeqLock
	// semanticLocks ablates the paper's OTB-NOrec optimization of skipping
	// fine-grained semantic locks under the global lock: when set, commits
	// run the full PreCommit/PostCommit protocol anyway, measuring the cost
	// the optimization saves.
	semanticLocks bool
	ctr           spin.Counters
	*cm.Core
	pool sync.Pool
}

// NewOTBNOrec creates an OTB-NOrec instance.
func NewOTBNOrec() *OTBNOrec {
	s := &OTBNOrec{Core: cm.NewCore("OTB-NOrec")}
	s.pool.New = func() any { return newNorecCtx(s) }
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

// Name implements Algorithm.
func (s *OTBNOrec) Name() string { return "OTB-NOrec" }

// Counters implements Algorithm.
func (s *OTBNOrec) Counters() *spin.Counters { return &s.ctr }

// Stop implements Algorithm (no background goroutines).
func (s *OTBNOrec) Stop() {}

// norecCtx is one OTB-NOrec transaction descriptor; it implements cm.Tx.
type norecCtx struct {
	s          *OTBNOrec
	h          cm.Handle
	snapshot   uint64
	holdsClock bool
	reads      []stm.ReadEntry
	writes     stm.WriteSet
	fn         func(*Ctx)
	ctx        Ctx
}

func newNorecCtx(s *OTBNOrec) *norecCtx {
	t := &norecCtx{s: s, h: s.NewHandle()}
	sem := otb.NewTx(&s.ctr)
	// The semantic layer traces into the integrated context's descriptor
	// track, so OTB operations and memory events share one span.
	sem.SetTraceLocal(t.h.Trace())
	// onOperationValidate: identical to onReadAccess — wait for a stable
	// global timestamp while co-validating memory and semantics.
	sem.SetValidator(func(*otb.Tx) {
		for t.snapshot != t.s.clock.Load() {
			t.snapshot = t.validateAll()
		}
	})
	t.ctx = Ctx{memory: t, sem: sem}
	return t
}

// Atomic implements Algorithm.
func (s *OTBNOrec) Atomic(fn func(*Ctx)) { s.AtomicCtx(nil, fn) }

// AtomicCtx implements Algorithm: Atomic observing ctx. The descriptor
// returns to its pool even when fn (or an armed failpoint) panics — the
// rollback path has already released the semantic state and global lock.
func (s *OTBNOrec) AtomicCtx(ctx context.Context, fn func(*Ctx)) error {
	t := s.pool.Get().(*norecCtx)
	t.fn = fn
	defer func() {
		t.fn = nil
		t.ctx.sem.Reset()
		t.reads = t.reads[:0]
		t.writes.Reset()
		s.pool.Put(t)
	}()
	return t.h.Run(ctx, nil, t)
}

// Begin implements cm.Tx: start one attempt. The semantic transaction pins
// an epoch guard so the OTB nodes it traverses cannot be recycled
// mid-attempt.
func (t *norecCtx) Begin() {
	t.reads = t.reads[:0]
	t.writes.Reset()
	t.ctx.sem.Reset()
	t.ctx.sem.Pin()
	t.snapshot = t.s.clock.WaitUnlocked(&t.s.ctr)
}

// Run implements cm.Tx.
func (t *norecCtx) Run() { t.fn(&t.ctx) }

// Commit implements cm.Tx.
func (t *norecCtx) Commit() {
	t.commit()
	t.ctx.sem.Unpin()
}

// Rollback implements cm.Tx: undo a failed attempt.
func (t *norecCtx) Rollback(abort.Reason) {
	t.ctx.sem.Rollback()
	t.ctx.sem.Unpin()
	if t.holdsClock {
		t.s.clock.Unlock()
		t.holdsClock = false
		t.h.Trace().Unlock(norecClockTraceKey)
	}
}

// Read implements stm.Tx with NOrec's post-read loop over the combined
// validation.
func (t *norecCtx) Read(c *mem.Cell) uint64 {
	if v, ok := t.writes.Get(c); ok {
		return v
	}
	v := c.Load()
	for t.snapshot != t.s.clock.Load() {
		t.snapshot = t.validateAll()
		v = c.Load()
	}
	t.reads = append(t.reads, stm.ReadEntry{Cell: c, Val: v})
	return v
}

// Write implements stm.Tx.
func (t *norecCtx) Write(c *mem.Cell, v uint64) { t.writes.Put(c, v) }

// validateAll value-validates the memory read set and semantically
// validates every attached OTB structure (without semantic locks: the
// global lock is the only synchronizer), returning a stable timestamp.
func (t *norecCtx) validateAll() uint64 {
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
		if !t.ctx.sem.ValidateAllWithoutLocks() {
			abort.Retry(abort.Conflict)
		}
		if ts == t.s.clock.Load() {
			t.h.Trace().Validated()
			return ts
		}
	}
}

// commit publishes both memory and semantic write sets under the global
// lock. Semantic locks (PreCommit/PostCommit) are skipped: the global lock
// subsumes them, which is the paper's OTB-NOrec optimization.
func (t *norecCtx) commit() {
	if t.writes.Len() == 0 && !t.ctx.sem.HasSemanticWrites() {
		return
	}
	for !t.s.clock.TryLock(t.snapshot) {
		t.s.ctr.IncCAS()
		t.snapshot = t.validateAll()
	}
	t.holdsClock = true
	t.h.Trace().Lock(norecClockTraceKey)
	// A semantic operation logs its entry after its post-validation, so the
	// entries of the last operation may predate the snapshot the lock was
	// taken at. Nothing can commit now; check them before publishing.
	if !t.ctx.sem.ValidateAllWithoutLocks() {
		abort.Retry(abort.Conflict)
	}
	fpNOrecCommitLocked.Hit()
	if t.s.semanticLocks {
		// Ablation: pay for the fine-grained semantic locks the global
		// lock makes redundant.
		t.ctx.sem.PreCommitAll()
	}
	t.writes.Publish()
	t.ctx.sem.OnCommitAll()
	// Without the ablation, PreCommit is skipped (the global lock subsumes
	// semantic locks), but OnCommit still creates inserted nodes in the
	// locked state; PostCommit releases everything acquired either way.
	t.ctx.sem.PostCommitAll()
	t.s.clock.Unlock()
	t.holdsClock = false
	t.h.Trace().Unlock(norecClockTraceKey)
}

// ---------------------------------------------------------------------------
// OTB-TL2

// orecBits sets the ownership-record table size.
const orecBits = 16

type orec struct {
	v atomic.Uint64
	_ [spin.CacheLineSize - 8]byte
}

func orecLocked(v uint64) bool    { return v&1 == 1 }
func orecVersion(v uint64) uint64 { return v >> 1 }

// OTBTL2 is the TL2-based integration context.
type OTBTL2 struct {
	clock atomic.Uint64
	orecs []orec
	ctr   spin.Counters
	*cm.Core
	pool sync.Pool
}

// NewOTBTL2 creates an OTB-TL2 instance.
func NewOTBTL2() *OTBTL2 {
	s := &OTBTL2{orecs: make([]orec, 1<<orecBits), Core: cm.NewCore("OTB-TL2")}
	s.pool.New = func() any { return newTL2Ctx(s) }
	return s
}

// Name implements Algorithm.
func (s *OTBTL2) Name() string { return "OTB-TL2" }

// Counters implements Algorithm.
func (s *OTBTL2) Counters() *spin.Counters { return &s.ctr }

// Stop implements Algorithm (no background goroutines).
func (s *OTBTL2) Stop() {}

func orecIdx(c *mem.Cell) int {
	h := c.ID() * 0x9e3779b97f4a7c15
	return int(h >> (64 - orecBits))
}

// tl2Ctx is one OTB-TL2 transaction descriptor; it implements cm.Tx.
type tl2Ctx struct {
	s      *OTBTL2
	h      cm.Handle
	rv     uint64
	reads  []*orec
	writes stm.WriteSet
	locked []tl2Locked
	seen   []tl2Locked // lockWriteSet scratch: distinct orecs, sorted by idx
	fn     func(*Ctx)
	ctx    Ctx
}

type tl2Locked struct {
	o   *orec
	idx int
	old uint64
}

func newTL2Ctx(s *OTBTL2) *tl2Ctx {
	t := &tl2Ctx{s: s, h: s.NewHandle()}
	sem := otb.NewTx(&s.ctr)
	sem.SetTraceLocal(t.h.Trace())
	// onOperationValidate: semantic validation with lock sampling only; TL2
	// memory reads are self-validating and need no re-check here.
	sem.SetValidator(func(sem *otb.Tx) {
		if !sem.ValidateAllWithLocks() {
			abort.Retry(abort.Conflict)
		}
	})
	t.ctx = Ctx{memory: t, sem: sem}
	return t
}

// Atomic implements Algorithm.
func (s *OTBTL2) Atomic(fn func(*Ctx)) { s.AtomicCtx(nil, fn) }

// AtomicCtx implements Algorithm: Atomic observing ctx. The descriptor
// returns to its pool even when fn (or an armed failpoint) panics — the
// rollback path has already unwound both the orec and semantic lock layers.
func (s *OTBTL2) AtomicCtx(ctx context.Context, fn func(*Ctx)) error {
	t := s.pool.Get().(*tl2Ctx)
	t.fn = fn
	defer func() {
		t.fn = nil
		t.ctx.sem.Reset()
		t.reset()
		s.pool.Put(t)
	}()
	return t.h.Run(ctx, nil, t)
}

// Begin implements cm.Tx: start one attempt. The semantic transaction pins
// an epoch guard so the OTB nodes it traverses cannot be recycled
// mid-attempt.
func (t *tl2Ctx) Begin() {
	t.reset()
	t.ctx.sem.Reset()
	t.ctx.sem.Pin()
	t.rv = t.s.clock.Load()
}

// Run implements cm.Tx.
func (t *tl2Ctx) Run() { t.fn(&t.ctx) }

// Commit implements cm.Tx.
func (t *tl2Ctx) Commit() {
	t.commit()
	t.ctx.sem.Unpin()
}

// Rollback implements cm.Tx: undo a failed attempt.
func (t *tl2Ctx) Rollback(abort.Reason) {
	t.releaseLocked()
	t.ctx.sem.Rollback()
	t.ctx.sem.Unpin()
}

func (t *tl2Ctx) reset() {
	t.reads = t.reads[:0]
	t.writes.Reset()
	t.locked = t.locked[:0]
	t.seen = t.seen[:0]
}

// Read implements stm.Tx with TL2 sampling plus semantic co-validation (the
// paper's onReadAccess calls validate-with-locks of all attached sets).
func (t *tl2Ctx) Read(c *mem.Cell) uint64 {
	if v, ok := t.writes.Get(c); ok {
		return v
	}
	o := &t.s.orecs[orecIdx(c)]
	v1 := o.v.Load()
	val := c.Load()
	v2 := o.v.Load()
	if v1 != v2 || orecLocked(v1) || orecVersion(v1) > t.rv {
		t.h.Trace().ValidateFail(c.ID())
		abort.Retry(abort.Conflict)
	}
	if !t.ctx.sem.ValidateAllWithLocks() {
		abort.Retry(abort.Conflict)
	}
	t.reads = append(t.reads, o)
	return val
}

// Write implements stm.Tx.
func (t *tl2Ctx) Write(c *mem.Cell, v uint64) { t.writes.Put(c, v) }

// commit interleaves TL2's orec protocol with the OTB semantic two-phase
// commit: memory locks, then semantic locks, then co-validation, then both
// publications, then both releases.
func (t *tl2Ctx) commit() {
	sem := t.ctx.sem
	if t.writes.Len() == 0 && !sem.HasSemanticWrites() {
		// Read-only: both memory (self-validating reads) and semantics
		// (validated per operation) are already consistent.
		return
	}
	t.lockWriteSet()
	sem.PreCommitAll()
	fpTL2CommitLocked.Hit()
	wv := t.s.clock.Add(1)
	if wv != t.rv+1 {
		t.validateReads()
	}
	if !sem.ValidateAllWithLocks() {
		abort.Retry(abort.Conflict)
	}
	t.h.Trace().Validated()
	t.writes.Publish()
	sem.OnCommitAll()
	for _, l := range t.locked {
		l.o.v.Store(wv << 1)
		t.h.Trace().Unlock(tl2OrecTraceKey(l.idx))
	}
	t.locked = t.locked[:0]
	sem.PostCommitAll()
}

func (t *tl2Ctx) lockWriteSet() {
	t.seen = t.seen[:0]
	for _, e := range t.writes.Entries() {
		idx := orecIdx(e.Cell)
		dup := false
		for _, l := range t.seen {
			if l.idx == idx {
				dup = true
				break
			}
		}
		if !dup {
			t.seen = append(t.seen, tl2Locked{o: &t.s.orecs[idx], idx: idx})
		}
	}
	for i := 1; i < len(t.seen); i++ {
		for j := i; j > 0 && t.seen[j].idx < t.seen[j-1].idx; j-- {
			t.seen[j], t.seen[j-1] = t.seen[j-1], t.seen[j]
		}
	}
	for _, l := range t.seen {
		v := l.o.v.Load()
		if orecLocked(v) || orecVersion(v) > t.rv || !l.o.v.CompareAndSwap(v, v|1) {
			t.s.ctr.IncCAS()
			t.h.Trace().LockBusy(tl2OrecTraceKey(l.idx))
			abort.Retry(abort.LockBusy)
		}
		t.h.Trace().Lock(tl2OrecTraceKey(l.idx))
		t.locked = append(t.locked, tl2Locked{o: l.o, idx: l.idx, old: v})
	}
}

func (t *tl2Ctx) validateReads() {
	for _, o := range t.reads {
		v := o.v.Load()
		if orecLocked(v) {
			old, mine := t.ownedOld(o)
			if !mine || orecVersion(old) > t.rv {
				t.h.Trace().ValidateFail(0) // orec identity only; no cell to name
				abort.Retry(abort.Conflict)
			}
			continue
		}
		if orecVersion(v) > t.rv {
			t.h.Trace().ValidateFail(0)
			abort.Retry(abort.Conflict)
		}
	}
}

func (t *tl2Ctx) ownedOld(o *orec) (uint64, bool) {
	for _, l := range t.locked {
		if l.o == o {
			return l.old, true
		}
	}
	return 0, false
}

func (t *tl2Ctx) releaseLocked() {
	for _, l := range t.locked {
		l.o.v.Store(l.old)
		t.h.Trace().Unlock(tl2OrecTraceKey(l.idx))
	}
	t.locked = t.locked[:0]
}
