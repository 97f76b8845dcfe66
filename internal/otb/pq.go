package otb

import (
	"math"
	"sync/atomic"

	"repro/internal/abort"
	"repro/internal/conc"
	"repro/internal/mem"
	"repro/internal/spin"
)

// pqAcquireAttempts bounds acquisition of the heap queue's global semantic
// lock before aborting, so transactions holding other semantic locks cannot
// deadlock against it.
const pqAcquireAttempts = 1024

// HeapPQ is the semi-optimistic boosted heap priority queue (Algorithm 5).
// Add operations are buffered in a local redo log; the first Min/RemoveMin
// acquires the single global semantic lock, publishes the pending adds, and
// from then on the transaction operates pessimistically (but undoably) on
// the shared heap. Transactions that only Add publish at commit. Because
// the lock holder excludes everyone, the shared heap needs no internal
// synchronization and no read validation.
type HeapPQ struct {
	id   uint64 // flight-recorder attribution key for the global lock
	slot Slot
	held atomic.Bool
	pq   conc.SeqHeap // accessed only by the lock holder
}

// pqKeyBit tags HeapPQ lock attribution keys so they cannot collide with
// element keys of the set structures in the conflict table.
const pqKeyBit = 1 << 61

// NewHeapPQ creates an empty queue.
func NewHeapPQ() *HeapPQ {
	q := &HeapPQ{id: heapSeq.Add(1) | pqKeyBit}
	q.slot = NewSlot(func() Datastructure { return &heapPQState{q: q} })
	return q
}

// heapSeq numbers heap queues for their trace keys.
var heapSeq atomic.Uint64

// heapPQState is the per-transaction state for one HeapPQ, and the
// Datastructure hooks that drive it.
type heapPQState struct {
	q       *HeapPQ
	redo    []int64 // buffered adds awaiting the lock
	holds   bool
	added   []int64 // adds applied under the lock (undo: remove one)
	removed []int64 // mins removed under the lock (undo: re-add)
}

// Reset recycles the state for a new transaction. The queue lock is never
// held between transactions (PostCommit/OnAbort release it).
func (st *heapPQState) Reset() {
	st.redo = st.redo[:0]
	st.added = st.added[:0]
	st.removed = st.removed[:0]
	st.holds = false
}

func (q *HeapPQ) state(tx *Tx) *heapPQState {
	return tx.Attach(&q.slot).(*heapPQState)
}

// Add enqueues key within tx (duplicates allowed). Before the transaction's
// first Min/RemoveMin this is purely local.
func (q *HeapPQ) Add(tx *Tx, key int64) {
	st := q.state(tx)
	if st.holds {
		q.pq.Add(key)
		st.added = append(st.added, key)
		return
	}
	st.redo = append(st.redo, key)
}

// RemoveMin dequeues the smallest key within tx; ok is false when empty.
func (q *HeapPQ) RemoveMin(tx *Tx) (int64, bool) {
	st := q.state(tx)
	q.ensureHeld(tx, st)
	key, ok := q.pq.RemoveMin()
	if ok {
		st.removed = append(st.removed, key)
	}
	return key, ok
}

// Min returns the smallest key within tx without removing it.
func (q *HeapPQ) Min(tx *Tx) (int64, bool) {
	st := q.state(tx)
	q.ensureHeld(tx, st)
	return q.pq.Min()
}

// ensureHeld acquires the global semantic lock (bounded, aborting on
// timeout) and publishes the pending local adds.
func (q *HeapPQ) ensureHeld(tx *Tx, st *heapPQState) {
	if st.holds {
		return
	}
	var b spin.Backoff
	for i := 0; ; i++ {
		if q.held.CompareAndSwap(false, true) {
			break
		}
		tx.Counters().IncCAS()
		if i >= pqAcquireAttempts {
			tx.tr.LockBusy(q.id)
			abort.Retry(abort.LockBusy)
		}
		b.Wait()
	}
	tx.tr.Lock(q.id)
	st.holds = true
	q.flushRedo(st)
}

func (q *HeapPQ) flushRedo(st *heapPQState) {
	for _, k := range st.redo {
		q.pq.Add(k)
		st.added = append(st.added, k)
	}
	st.redo = st.redo[:0]
}

// PreCommit acquires the lock for add-only transactions so their redo log
// can be published.
func (st *heapPQState) PreCommit(tx *Tx) {
	if st.holds || len(st.redo) == 0 {
		return
	}
	st.q.ensureHeld(tx, st)
}

// OnCommit is a no-op: effects are applied when the lock is taken.
func (st *heapPQState) OnCommit(tx *Tx) {}

// PostCommit releases the global lock and discards the undo trail.
func (st *heapPQState) PostCommit(tx *Tx) {
	if !st.holds {
		return
	}
	st.added = st.added[:0]
	st.removed = st.removed[:0]
	st.holds = false
	st.q.held.Store(false)
	tx.tr.Unlock(st.q.id)
}

// OnAbort rolls back any effects applied under the lock (in reverse) and
// releases it.
func (st *heapPQState) OnAbort(tx *Tx) {
	q := st.q
	st.redo = st.redo[:0]
	if !st.holds {
		return
	}
	for i := len(st.removed) - 1; i >= 0; i-- {
		q.pq.Add(st.removed[i])
	}
	for i := len(st.added) - 1; i >= 0; i-- {
		q.pq.RemoveOne(st.added[i])
	}
	st.added = st.added[:0]
	st.removed = st.removed[:0]
	st.holds = false
	q.held.Store(false)
}

// Dirty reports whether the transaction has pending or applied effects on
// this queue.
func (st *heapPQState) Dirty(tx *Tx) bool { return st.holds || len(st.redo) > 0 }

// ValidateWithLocks is trivially true: the global lock admits no concurrent
// readers to invalidate.
func (st *heapPQState) ValidateWithLocks(tx *Tx) bool { return true }

// ValidateWithoutLocks is trivially true.
func (st *heapPQState) ValidateWithoutLocks(tx *Tx) bool { return true }

// Len returns the number of queued keys (reporting only; unsynchronized).
func (q *HeapPQ) Len() int { return q.pq.Len() }

var _ Datastructure = (*heapPQState)(nil)

// SkipPQ is the fully optimistic skip-list priority queue (Algorithm 6): a
// thin wrapper over the OTB SkipSet plus, per transaction, a local
// sequential heap of this transaction's own pending adds and a
// lastRemovedMin cursor. No locks are taken before commit, and Min is
// lock-free.
type SkipPQ struct {
	set  *SkipSet
	slot Slot
}

// NewSkipPQ creates an empty queue. Keys are unique, as in the paper's
// implementation.
func NewSkipPQ() *SkipPQ {
	q := &SkipPQ{set: NewSkipSet()}
	q.slot = NewSlot(func() Datastructure { return &skipPQState{lastRemoved: q.set.core.Head, head: q.set.core.Head} })
	return q
}

// Keys returns the unmarked keys in ascending order. Pinned like Len;
// meant for quiescent callers (tests, snapshots).
func (q *SkipPQ) Keys() []int64 { return q.set.Keys() }

// skipPQState is the per-transaction state for one SkipPQ. Its hooks do
// nothing: the wrapped set, attached to the same transaction, carries the
// queue's reads and writes.
type skipPQState struct {
	local       conc.SeqHeap
	lastRemoved *mem.Tower
	head        *mem.Tower // where the cursor restarts
}

// Reset recycles the state for a new transaction.
func (st *skipPQState) Reset() {
	st.local.Clear()
	st.lastRemoved = st.head
}

func (q *SkipPQ) state(tx *Tx) *skipPQState {
	return tx.Attach(&q.slot).(*skipPQState)
}

// Add enqueues key within tx, returning false if already queued.
func (q *SkipPQ) Add(tx *Tx, key int64) bool {
	st := q.state(tx)
	if !q.set.Add(tx, key) {
		return false
	}
	st.local.Add(key)
	return true
}

// firstLive returns the first present shared node after from, or nil when
// the rest of the structure is empty.
func (q *SkipPQ) firstLive(from *mem.Tower) *mem.Tower {
	for curr := from.Next(0).Load(); curr.Key != math.MaxInt64; curr = curr.Next(0).Load() {
		if curr.Linked() && !curr.Marked() {
			return curr
		}
	}
	return nil
}

// RemoveMin dequeues the smallest key within tx; ok is false when the queue
// is empty. The shared minimum is tracked from the transaction's
// lastRemovedMin cursor and pinned in the semantic read set via the
// underlying set operations, exactly as Algorithm 6 prescribes.
func (q *SkipPQ) RemoveMin(tx *Tx) (int64, bool) {
	st := q.state(tx)
	localMin, lok := st.local.Min()
	shared := q.firstLive(st.lastRemoved)
	if lok && (shared == nil || localMin < shared.Key) {
		if shared != nil {
			// Pin the shared minimum in the read set so a smaller insertion
			// by another transaction invalidates us.
			if !q.set.Contains(tx, shared.Key) {
				tx.tr.NoteKey(TraceKey(shared.Key))
				abort.Retry(abort.Conflict)
			}
			if q.firstLive(st.lastRemoved) != shared {
				tx.tr.NoteKey(TraceKey(shared.Key))
				abort.Retry(abort.Conflict)
			}
		}
		// Dequeue a locally added item: cancel its pending add (the set
		// operations eliminate) and pop it from the local heap.
		if !q.set.Remove(tx, localMin) {
			tx.tr.NoteKey(TraceKey(localMin))
			abort.Retry(abort.Conflict)
		}
		st.local.RemoveMin()
		return localMin, true
	}
	if shared == nil {
		return 0, false
	}
	if !q.set.Remove(tx, shared.Key) {
		tx.tr.NoteKey(TraceKey(shared.Key))
		abort.Retry(abort.Conflict)
	}
	if q.firstLive(st.lastRemoved) != shared {
		tx.tr.NoteKey(TraceKey(shared.Key))
		abort.Retry(abort.Conflict)
	}
	st.lastRemoved = shared
	return shared.Key, true
}

// Min returns the smallest queued key within tx without removing it. It is
// lock-free: pessimistic boosting must write-lock the whole queue here.
func (q *SkipPQ) Min(tx *Tx) (int64, bool) {
	st := q.state(tx)
	localMin, lok := st.local.Min()
	shared := q.firstLive(st.lastRemoved)
	if lok && (shared == nil || localMin < shared.Key) {
		if shared != nil {
			if !q.set.Contains(tx, shared.Key) {
				tx.tr.NoteKey(TraceKey(shared.Key))
				abort.Retry(abort.Conflict)
			}
		}
		return localMin, true
	}
	if shared == nil {
		return 0, false
	}
	if !q.set.Contains(tx, shared.Key) {
		tx.tr.NoteKey(TraceKey(shared.Key))
		abort.Retry(abort.Conflict)
	}
	if q.firstLive(st.lastRemoved) != shared {
		tx.tr.NoteKey(TraceKey(shared.Key))
		abort.Retry(abort.Conflict)
	}
	return shared.Key, true
}

// The hooks of a SkipPQ are no-ops (see skipPQState).
func (st *skipPQState) PreCommit(*Tx)                 {}
func (st *skipPQState) OnCommit(*Tx)                  {}
func (st *skipPQState) PostCommit(*Tx)                {}
func (st *skipPQState) OnAbort(*Tx)                   {}
func (st *skipPQState) Dirty(*Tx) bool                { return false }
func (st *skipPQState) ValidateWithLocks(*Tx) bool    { return true }
func (st *skipPQState) ValidateWithoutLocks(*Tx) bool { return true }

// Len returns the number of queued keys (reporting only).
func (q *SkipPQ) Len() int { return q.set.Len() }

var _ Datastructure = (*skipPQState)(nil)
