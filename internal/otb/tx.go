// Package otb implements Optimistic Transactional Boosting, the paper's
// primary contribution: transactional versions of lazy data structures that
// traverse without instrumentation, record semantic read/write sets,
// post-validate after every operation (opacity), and defer all physical
// modification to a two-phase-locked commit.
//
// Four boosted structures are provided, matching the paper:
//
//   - ListSet: linked-list set (Algorithms 1–3)
//   - SkipSet: skip-list set (Section 3.2.1)
//   - HeapPQ: semi-optimistic heap priority queue (Algorithm 5)
//   - SkipPQ: skip-list priority queue (Algorithm 6)
//
// Standalone use goes through Atomic:
//
//	set := otb.NewListSet()
//	otb.Atomic(nil, func(tx *otb.Tx) {
//		set.Add(tx, 1)
//		set.Add(tx, 2)
//	})
//
// For mixed transactions that also read and write STM memory, see package
// integrate, which drives the same structures through the Chapter 4
// OTB-DS interface (PreCommit / OnCommit / PostCommit / OnAbort /
// Validate[Without]Locks).
package otb

import (
	"context"
	"sync"

	"repro/internal/abort"
	"repro/internal/chaos/failpoint"
	"repro/internal/cm"
	"repro/internal/mem/epoch"
	"repro/internal/spin"
	"repro/internal/trace"
)

// Failpoints on the OTB validation and commit paths; disarmed they are one
// atomic load each. See DESIGN.md's "Failure model" for placement rules.
var (
	// fpValidateMid fires inside post-validation, before the semantic read
	// sets are checked — nothing is held, so any action is recoverable.
	fpValidateMid = failpoint.New("otb.validate.mid")
	// fpCommitPreLock fires at the top of commit, before any semantic lock
	// is acquired.
	fpCommitPreLock = failpoint.New("otb.commit.pre-lock")
	// fpCommitPostLock fires after every semantic lock is held but before
	// anything is published — the most dangerous window; recovery must
	// release the locks via OnAbort.
	fpCommitPostLock = failpoint.New("otb.commit.post-lock")
)

// Datastructure is the OTB-DS interface of Chapter 4: the sub-routines an
// STM context calls to drive a boosted structure through commit and
// validation. Every OTB structure in this package implements it.
type Datastructure interface {
	// PreCommit acquires the semantic locks covering the transaction's
	// write set, aborting (via panic) if any is busy.
	PreCommit(tx *Tx)
	// OnCommit publishes the semantic write set to the shared structure.
	// Semantic locks must already be held.
	OnCommit(tx *Tx)
	// PostCommit releases the semantic locks after a successful commit.
	PostCommit(tx *Tx)
	// OnAbort releases any semantic locks still held by an aborting
	// transaction without publishing anything.
	OnAbort(tx *Tx)
	// ValidateWithLocks checks the semantic read set, including that the
	// involved nodes are not locked by other transactions (sampling lock
	// versions around the semantic check).
	ValidateWithLocks(tx *Tx) bool
	// ValidateWithoutLocks checks only the semantic conditions of the read
	// set, for callers that synchronize by other means (e.g. the OTB-NOrec
	// context, whose global lock already excludes writers).
	ValidateWithoutLocks(tx *Tx) bool
	// Dirty reports whether the transaction has pending semantic writes on
	// this structure (used by integration contexts for their read-only
	// commit fast path).
	Dirty(tx *Tx) bool
}

// Tx is a semantic transaction over any number of OTB data structures. It
// tracks which structures were touched (in first-touch order), holds their
// per-transaction semantic read/write sets, and coordinates validation and
// two-phase-locked commit across all of them.
type Tx struct {
	attached []Datastructure
	states   []any                 // states[i] is the state of attached[i]
	cache    map[Datastructure]any // every state this descriptor has made, for reuse
	ctr      *spin.Counters
	eg       *epoch.Guard // epoch pin covering the current attempt; may be nil
	tr       *trace.Local // flight-recorder handle; may be nil

	// validator, when non-nil, replaces the default post-validation
	// strategy (ValidateWithLocks on every attached structure). The
	// integration contexts install their own co-validation of memory and
	// semantic read sets here.
	validator func(*Tx)
}

// NewTx creates a transaction descriptor. Counters may be nil. Most callers
// should use Atomic instead; NewTx is exported for the integration layer,
// which embeds the semantic transaction inside an STM context.
func NewTx(ctr *spin.Counters) *Tx {
	return &Tx{cache: make(map[Datastructure]any), ctr: ctr}
}

// SetValidator replaces the post-validation strategy (the paper's
// onOperationValidate). Passing nil restores the standalone default.
func (tx *Tx) SetValidator(f func(*Tx)) { tx.validator = f }

// SetTraceLocal attaches a flight-recorder handle so the semantic layer's
// operations, lock acquisitions and validation failures are traced into the
// caller's span. Integration contexts install their own handle here;
// standalone descriptors get one from the pool. Nil is a valid no-op handle.
func (tx *Tx) SetTraceLocal(l *trace.Local) { tx.tr = l }

// Trace returns the transaction's flight-recorder handle (possibly nil; all
// its methods are nil-safe).
func (tx *Tx) Trace() *trace.Local { return tx.tr }

// HasSemanticWrites reports whether any attached structure has pending
// semantic writes.
func (tx *Tx) HasSemanticWrites() bool {
	for _, ds := range tx.attached {
		if ds.Dirty(tx) {
			return true
		}
	}
	return false
}

// ValidateAllWithoutLocks checks the semantic conditions of every attached
// structure, without lock checks.
func (tx *Tx) ValidateAllWithoutLocks() bool {
	for _, ds := range tx.attached {
		if !ds.ValidateWithoutLocks(tx) {
			return false
		}
	}
	return true
}

// ValidateAllWithLocks checks every attached structure including semantic
// lock status.
func (tx *Tx) ValidateAllWithLocks() bool {
	for _, ds := range tx.attached {
		if !ds.ValidateWithLocks(tx) {
			return false
		}
	}
	return true
}

// PreCommitAll / OnCommitAll / PostCommitAll drive the commit sub-routines
// of every attached structure; Commit sequences them for a standalone
// transaction, the integration contexts around their memory commit.

// PreCommitAll acquires semantic locks on every attached structure.
func (tx *Tx) PreCommitAll() {
	for _, ds := range tx.attached {
		ds.PreCommit(tx)
	}
}

// OnCommitAll publishes the semantic write sets of every attached structure.
func (tx *Tx) OnCommitAll() {
	for _, ds := range tx.attached {
		ds.OnCommit(tx)
	}
}

// PostCommitAll releases semantic locks on every attached structure.
func (tx *Tx) PostCommitAll() {
	for _, ds := range tx.attached {
		ds.PostCommit(tx)
	}
}

// Counters returns the contention counters (possibly nil).
func (tx *Tx) Counters() *spin.Counters { return tx.ctr }

// Pin enters an epoch-reclamation critical region covering the current
// attempt: nodes this transaction can reach (its traversals, read and write
// sets) are guaranteed not to be recycled until Unpin. Atomic pins around
// every attempt automatically; integration contexts, which drive attempts
// themselves, call Pin in their begin hook and Unpin when the attempt ends
// (commit or rollback). Pin is idempotent within one attempt.
func (tx *Tx) Pin() {
	if tx.eg == nil {
		tx.eg = epoch.Default.Enter()
	}
}

// Unpin exits the epoch critical region, flushing any retirements made
// during the attempt. Safe to call when not pinned.
func (tx *Tx) Unpin() {
	if tx.eg != nil {
		tx.eg.Exit()
		tx.eg = nil
	}
}

// retire schedules an unlinked node for recycling once every concurrent
// reader is done with it. Without a pin (a caller driving Tx manually
// outside Atomic and the integration contexts) the node is simply dropped
// for the garbage collector — always safe, never reused.
func (tx *Tx) retire(v any, free func(any)) {
	if tx.eg != nil {
		tx.eg.Retire(v, free)
	}
}

// txState is implemented by per-structure transaction states that can be
// recycled across transactions (exported method: package mvotb's runtime
// attaches its state from outside this package).
type txState interface{ Reset() }

// Attach registers ds with the transaction (idempotent) and returns its
// per-transaction state, creating it with mk on first touch. States are
// cached across transactions on the same descriptor and reset on re-attach.
func (tx *Tx) Attach(ds Datastructure, mk func() any) any {
	if st := tx.peek(ds); st != nil {
		return st
	}
	st, ok := tx.cache[ds]
	if !ok {
		st = mk()
		tx.cache[ds] = st
	} else if r, ok := st.(txState); ok {
		r.Reset()
	}
	tx.attached = append(tx.attached, ds)
	tx.states = append(tx.states, st)
	return st
}

// peek returns the state of ds if this transaction has attached it, else nil.
// The commit and validation hooks of the structures in this package reach
// their state through it: a scan of a slice that holds one or two entries,
// where the cache would hash an interface key on every call.
func (tx *Tx) peek(ds Datastructure) any {
	for i, a := range tx.attached {
		if a == ds {
			return tx.states[i]
		}
	}
	return nil
}

// Attached returns the structures touched by this transaction in
// first-touch order.
func (tx *Tx) Attached() []Datastructure { return tx.attached }

// Reset clears the transaction for reuse. Cached per-structure states are
// retained and reset lazily on their next Attach.
func (tx *Tx) Reset() {
	tx.attached = tx.attached[:0]
	tx.states = tx.states[:0]
}

// PostValidate runs after every operation: it validates the semantic read
// sets of all attached structures (guaranteeing opacity, as NOrec does at
// the memory level), aborting on failure. Integration contexts install a
// replacement strategy via SetValidator.
func (tx *Tx) PostValidate() {
	fpValidateMid.Hit()
	if tx.validator != nil {
		tx.validator(tx)
		return
	}
	if !tx.ValidateAllWithLocks() {
		abort.Retry(abort.Conflict)
	}
	tx.tr.Validated()
}

// Commit runs the standalone two-phase commit across all attached
// structures: acquire all semantic locks, validate all read sets, publish
// all write sets, release. Any failure aborts (the rollback path releases
// acquired locks via OnAbort).
func (tx *Tx) Commit() {
	fpCommitPreLock.Hit()
	tx.PreCommitAll()
	fpCommitPostLock.Hit()
	if !tx.ValidateAllWithLocks() {
		abort.Retry(abort.Conflict)
	}
	tx.tr.Validated()
	tx.OnCommitAll()
	tx.PostCommitAll()
}

// Rollback releases anything held by an aborting transaction and clears it.
func (tx *Tx) Rollback() {
	for _, ds := range tx.attached {
		ds.OnAbort(tx)
	}
	tx.Reset()
}

// core is the lifecycle core of standalone (Atomic) transactions: the "OTB"
// meter and flight-recorder source, and the contention manager. Integration
// contexts run under their own cores and record into them via
// SetTraceLocal.
var core = cm.NewCore("OTB")

// SetManager installs the contention manager standalone transactions run
// under (nil restores the shared default). Safe during live traffic.
func SetManager(m *cm.Manager) { core.SetManager(m) }

// standaloneRunner is the pooled descriptor of one standalone transaction;
// it implements cm.Tx over the exported Tx protocol.
type standaloneRunner struct {
	h  cm.Handle
	tx *Tx
	fn func(*Tx)
}

func (r *standaloneRunner) Begin() {
	r.tx.Reset()
	r.tx.Pin()
}

func (r *standaloneRunner) Run() { r.fn(r.tx) }

func (r *standaloneRunner) Commit() {
	r.tx.Commit()
	r.tx.Unpin()
}

func (r *standaloneRunner) Rollback(abort.Reason) {
	r.tx.Rollback()
	r.tx.Unpin()
}

// txPool recycles standalone transaction descriptors (and their state maps)
// across Atomic calls. Each descriptor carries a shard-bound recording
// handle; the pool keeps descriptors per-P, so recording stays uncontended.
var txPool = sync.Pool{New: func() any {
	r := &standaloneRunner{h: core.NewHandle(), tx: NewTx(nil)}
	r.tx.tr = r.h.Trace()
	return r
}}

// Atomic runs fn as a standalone OTB transaction, retrying on abort until
// it commits. Stats may be nil.
func Atomic(stats *abort.Stats, fn func(*Tx)) {
	AtomicCtx(nil, stats, fn)
}

// AtomicCtx is Atomic observing ctx: cancellation or deadline expiry is
// checked at every retry-loop top and inside contention-management waits;
// an abandoned transaction is recorded as abort.Canceled and the context's
// error is returned (nil after a successful commit).
//
// The transaction descriptor returns to its pool even when fn (or an armed
// failpoint) panics — by then the rollback path has already released every
// semantic lock and discarded the logs, so the descriptor is clean.
func AtomicCtx(ctx context.Context, stats *abort.Stats, fn func(*Tx)) error {
	r := txPool.Get().(*standaloneRunner)
	r.fn = fn
	defer func() {
		r.tx.Reset()
		r.fn = nil
		txPool.Put(r)
	}()
	return r.h.Run(ctx, stats, r)
}
