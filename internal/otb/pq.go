package otb

import (
	"math"
	"sync/atomic"

	"repro/internal/abort"
	"repro/internal/conc"
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
	held atomic.Bool
	pq   conc.SeqHeap // accessed only by the lock holder
}

// pqKeyBit tags HeapPQ lock attribution keys so they cannot collide with
// element keys of the set structures in the conflict table.
const pqKeyBit = 1 << 61

// NewHeapPQ creates an empty queue.
func NewHeapPQ() *HeapPQ { return &HeapPQ{id: nodeSeq.Add(1) | pqKeyBit} }

// heapPQState is the per-transaction state for one HeapPQ.
type heapPQState struct {
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
	return tx.Attach(q, func() any { return &heapPQState{} }).(*heapPQState)
}

func (q *HeapPQ) peekState(tx *Tx) *heapPQState {
	st, _ := tx.peek(q).(*heapPQState)
	return st
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
func (q *HeapPQ) PreCommit(tx *Tx) {
	st := q.peekState(tx)
	if st == nil || st.holds || len(st.redo) == 0 {
		return
	}
	q.ensureHeld(tx, st)
}

// OnCommit is a no-op: effects are applied when the lock is taken.
func (q *HeapPQ) OnCommit(tx *Tx) {}

// PostCommit releases the global lock and discards the undo trail.
func (q *HeapPQ) PostCommit(tx *Tx) {
	st := q.peekState(tx)
	if st == nil || !st.holds {
		return
	}
	st.added = st.added[:0]
	st.removed = st.removed[:0]
	st.holds = false
	q.held.Store(false)
	tx.tr.Unlock(q.id)
}

// OnAbort rolls back any effects applied under the lock (in reverse) and
// releases it.
func (q *HeapPQ) OnAbort(tx *Tx) {
	st := q.peekState(tx)
	if st == nil {
		return
	}
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
func (q *HeapPQ) Dirty(tx *Tx) bool {
	st := q.peekState(tx)
	return st != nil && (st.holds || len(st.redo) > 0)
}

// ValidateWithLocks is trivially true: the global lock admits no concurrent
// readers to invalidate.
func (q *HeapPQ) ValidateWithLocks(tx *Tx) bool { return true }

// ValidateWithoutLocks is trivially true.
func (q *HeapPQ) ValidateWithoutLocks(tx *Tx) bool { return true }

// Len returns the number of queued keys (reporting only; unsynchronized).
func (q *HeapPQ) Len() int { return q.pq.Len() }

var _ Datastructure = (*HeapPQ)(nil)

// SkipPQ is the fully optimistic skip-list priority queue (Algorithm 6): a
// thin wrapper over the OTB SkipSet plus, per transaction, a local
// sequential heap of this transaction's own pending adds and a
// lastRemovedMin cursor. No locks are taken before commit, and Min is
// lock-free.
type SkipPQ struct {
	set *SkipSet
}

// NewSkipPQ creates an empty queue. Keys are unique, as in the paper's
// implementation.
func NewSkipPQ() *SkipPQ { return &SkipPQ{set: NewSkipSet()} }

// Keys returns the unmarked keys in ascending order. Pinned like Len;
// meant for quiescent callers (tests, snapshots).
func (q *SkipPQ) Keys() []int64 { return q.set.Keys() }

// skipPQState is the per-transaction state for one SkipPQ.
type skipPQState struct {
	local       conc.SeqHeap
	lastRemoved *snode
}

// skipPQStateFor binds a recyclable state to its queue so reset can restore
// the cursor to the head.
type skipPQStateFor struct {
	skipPQState
	q *SkipPQ
}

// Reset recycles the state for a new transaction.
func (st *skipPQStateFor) Reset() {
	st.local.Clear()
	st.lastRemoved = st.q.set.head
}

func (q *SkipPQ) state(tx *Tx) *skipPQState {
	st := tx.Attach(q, func() any {
		s := &skipPQStateFor{q: q}
		s.lastRemoved = q.set.head
		return s
	}).(*skipPQStateFor)
	return &st.skipPQState
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
func (q *SkipPQ) firstLive(from *snode) *snode {
	for curr := from.next[0].Load(); curr.key != math.MaxInt64; curr = curr.next[0].Load() {
		if curr.fullyLinked.Load() && !curr.marked.Load() {
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
	if lok && (shared == nil || localMin < shared.key) {
		if shared != nil {
			// Pin the shared minimum in the read set so a smaller insertion
			// by another transaction invalidates us.
			if !q.set.Contains(tx, shared.key) {
				tx.tr.NoteKey(TraceKey(shared.key))
				abort.Retry(abort.Conflict)
			}
			if q.firstLive(st.lastRemoved) != shared {
				tx.tr.NoteKey(TraceKey(shared.key))
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
	if !q.set.Remove(tx, shared.key) {
		tx.tr.NoteKey(TraceKey(shared.key))
		abort.Retry(abort.Conflict)
	}
	if q.firstLive(st.lastRemoved) != shared {
		tx.tr.NoteKey(TraceKey(shared.key))
		abort.Retry(abort.Conflict)
	}
	st.lastRemoved = shared
	return shared.key, true
}

// Min returns the smallest queued key within tx without removing it. It is
// lock-free: pessimistic boosting must write-lock the whole queue here.
func (q *SkipPQ) Min(tx *Tx) (int64, bool) {
	st := q.state(tx)
	localMin, lok := st.local.Min()
	shared := q.firstLive(st.lastRemoved)
	if lok && (shared == nil || localMin < shared.key) {
		if shared != nil {
			if !q.set.Contains(tx, shared.key) {
				tx.tr.NoteKey(TraceKey(shared.key))
				abort.Retry(abort.Conflict)
			}
		}
		return localMin, true
	}
	if shared == nil {
		return 0, false
	}
	if !q.set.Contains(tx, shared.key) {
		tx.tr.NoteKey(TraceKey(shared.key))
		abort.Retry(abort.Conflict)
	}
	if q.firstLive(st.lastRemoved) != shared {
		tx.tr.NoteKey(TraceKey(shared.key))
		abort.Retry(abort.Conflict)
	}
	return shared.key, true
}

// PreCommit, OnCommit, PostCommit and OnAbort delegate entirely to the
// wrapped set, which is attached to the same transaction; the queue itself
// holds no shared state beyond it.
func (q *SkipPQ) PreCommit(tx *Tx) {}

// OnCommit implements Datastructure (no queue-local shared state).
func (q *SkipPQ) OnCommit(tx *Tx) {}

// PostCommit implements Datastructure.
func (q *SkipPQ) PostCommit(tx *Tx) {}

// OnAbort implements Datastructure.
func (q *SkipPQ) OnAbort(tx *Tx) {}

// Dirty is false: the wrapped set carries the queue's writes.
func (q *SkipPQ) Dirty(tx *Tx) bool { return false }

// ValidateWithLocks is true: the wrapped set validates the queue's reads.
func (q *SkipPQ) ValidateWithLocks(tx *Tx) bool { return true }

// ValidateWithoutLocks is true for the same reason.
func (q *SkipPQ) ValidateWithoutLocks(tx *Tx) bool { return true }

// Len returns the number of queued keys (reporting only).
func (q *SkipPQ) Len() int { return q.set.Len() }

var _ Datastructure = (*SkipPQ)(nil)
