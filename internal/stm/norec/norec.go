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
//
// Two layers run on Tx, the protocol half of the descriptor. Package
// integrate's OTB-NOrec drives it with an stm.Semantic: validation then
// co-validates the semantic read sets, and a commit publishes them under the
// global lock. Package rtc's clients replace only its Commit, posting the
// transaction to a server that checks it with ReadsValid and publishes it
// with Publish under the instance's Clock.
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
	// redo log (or any semantic write) is published; recovery must restore
	// the pre-lock timestamp.
	fpCommitLocked = failpoint.New("norec.commit.locked")
)

// clockTraceKey tags flight-recorder lock events for the global commit
// lock, which has no per-cell identity.
const clockTraceKey = 1<<60 | 3

// STM is a NOrec instance. Transactions from different STM instances are
// not synchronized with each other.
type STM struct {
	// clock is NOrec's single serialization point: every writer commit CASes
	// it, so unlike TL2's version clock it cannot be sharded (see DESIGN.md).
	// Padding keeps it alone on its cache line so the adjacent counters do
	// not steal it from committers.
	clock spin.SeqLock
	_     [spin.CacheLineSize - 8]byte
	name  string
	ctr   spin.Counters
	*cm.Core
	pool sync.Pool
}

// New creates a NOrec instance.
func New() *STM { return NewNamed("NOrec") }

// NewNamed creates a NOrec instance metered and traced under name, for a
// layer that runs its own descriptors over NewTx.
func NewNamed(name string) *STM {
	s := &STM{name: name, Core: cm.NewCore(name)}
	s.pool.New = func() any { return &tx{Tx: Tx{s: s, h: s.NewHandle()}} }
	return s
}

// Name implements stm.Algorithm.
func (s *STM) Name() string { return s.name }

// Counters implements stm.Algorithm.
func (s *STM) Counters() *spin.Counters { return &s.ctr }

// Stop implements stm.Algorithm. NOrec has no background goroutines.
func (s *STM) Stop() {}

// Clock returns the global timestamp, for a layer that commits its
// descriptors elsewhere (package rtc's servers).
func (s *STM) Clock() *spin.SeqLock { return &s.clock }

// Tx is the protocol half of a NOrec descriptor, reused across attempts:
// snapshot, read and write sets, validation, commit and rollback. It
// implements stm.Tx, and cm.Tx but for Run, which the descriptor embedding
// it supplies.
type Tx struct {
	s          *STM
	h          cm.Handle
	snapshot   uint64
	holdsClock bool // global lock held (commit in progress)
	reads      []stm.ReadEntry
	writes     stm.WriteSet
	// sem is the extending layer's semantic transaction, nil in plain NOrec.
	// With semanticLocks its commit also takes the semantic locks the global
	// lock makes redundant (the abl.locks ablation).
	sem           stm.Semantic
	semanticLocks bool
}

// NewTx returns a descriptor whose validation and commit also cover sem.
func (s *STM) NewTx(sem stm.Semantic, semanticLocks bool) *Tx {
	return &Tx{s: s, h: s.NewHandle(), sem: sem, semanticLocks: semanticLocks}
}

// tx is a plain NOrec descriptor: the protocol plus the body.
type tx struct {
	Tx
	fn func(stm.Tx)
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
		t.Reset()
		s.pool.Put(t)
	}()
	return t.h.Run(ctx, nil, t)
}

// Run implements cm.Tx.
func (t *tx) Run() { t.fn(&t.Tx) }

// Handle is the descriptor's lifecycle handle, which runs it.
func (t *Tx) Handle() *cm.Handle { return &t.h }

// Reset empties the read and write sets.
func (t *Tx) Reset() {
	t.reads = t.reads[:0]
	t.writes.Reset()
}

// Begin implements cm.Tx: start one attempt.
func (t *Tx) Begin() {
	t.Reset()
	t.snapshot = t.s.clock.WaitUnlocked(&t.s.ctr)
}

// Rollback implements cm.Tx: release the global lock if this attempt died
// holding it (an armed failpoint, a busy semantic lock or a foreign panic
// between lock and publish). Nothing was published — every abort point of
// the commit precedes the first publication, and OnCommitAll cannot fail —
// so the pre-lock timestamp is restored: concurrent readers saw only an odd
// (locked) clock and re-validate against unchanged memory.
func (t *Tx) Rollback(abort.Reason) {
	if t.holdsClock {
		t.holdsClock = false
		t.s.clock.UnlockUnchanged()
		t.h.Trace().Unlock(clockTraceKey)
	}
}

// Read implements stm.Tx with NOrec's post-read validation loop.
func (t *Tx) Read(c *mem.Cell) uint64 {
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
func (t *Tx) Write(c *mem.Cell, v uint64) {
	t.writes.Put(c, v)
}

// Validate is Read's check without a read: it re-validates until the
// snapshot is current. The semantic layer runs it after every operation
// (the paper's onOperationValidate, identical to onReadAccess).
func (t *Tx) Validate() {
	for t.snapshot != t.s.clock.Load() {
		t.snapshot = t.validate()
	}
}

// validate re-checks every read value against memory, and every semantic
// read set without semantic locks (the global lock is the only
// synchronizer), retrying until it observes a quiescent (even, unchanged)
// timestamp. It returns the validated timestamp, or aborts the transaction
// on a mismatch.
func (t *Tx) validate() uint64 {
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
		if c := t.staleRead(); c != nil {
			t.h.Trace().ValidateFail(c.ID())
			abort.Retry(abort.Conflict)
		}
		if t.sem != nil && !t.sem.ValidateAllWithoutLocks() {
			abort.Retry(abort.Conflict)
		}
		if ts == t.s.clock.Load() {
			t.h.Trace().Validated()
			return ts
		}
	}
}

// staleRead returns the first read cell that no longer holds the value
// read, or nil.
func (t *Tx) staleRead() *mem.Cell {
	for i := range t.reads {
		if t.reads[i].Cell.Load() != t.reads[i].Val {
			return t.reads[i].Cell
		}
	}
	return nil
}

// ReadsValid reports whether every read cell still holds the value read:
// validate's check, once, for a committer that holds the clock stable.
func (t *Tx) ReadsValid() bool { return t.staleRead() == nil }

// NumWrites returns the number of distinct cells written.
func (t *Tx) NumWrites() int { return t.writes.Len() }

// Publish writes the redo log back to memory; the caller holds the clock.
func (t *Tx) Publish() { t.writes.Publish() }

// Commit implements cm.Tx: publish the redo log, and the semantic write
// sets, under the global lock. Read-only transactions return immediately:
// their incremental validation already serialized them at the last
// validated snapshot.
func (t *Tx) Commit() {
	sem := t.sem
	if t.writes.Len() == 0 && (sem == nil || !sem.HasSemanticWrites()) {
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
	t.h.Trace().Lock(clockTraceKey)
	// Every semantic entry was validated at or after the snapshot the lock
	// was taken at; the semantic read sets are checked once more where
	// nothing can commit, so commit-time semantic validation stays
	// unconditional.
	if sem != nil && !sem.ValidateAllWithoutLocks() {
		abort.Retry(abort.Conflict)
	}
	fpCommitLocked.Hit()
	if t.semanticLocks {
		sem.PreCommitAll()
	}
	t.writes.Publish()
	if sem != nil {
		// PreCommit is skipped — the global lock subsumes the semantic
		// locks, the paper's OTB-NOrec optimization — but OnCommit still
		// creates inserted nodes locked, and PostCommit releases them.
		sem.OnCommitAll()
		sem.PostCommitAll()
	}
	t.s.clock.Unlock()
	t.holdsClock = false
	t.h.Trace().Unlock(clockTraceKey)
	t.s.Profile().AddCommit(start)
}

var _ stm.Algorithm = (*STM)(nil)
