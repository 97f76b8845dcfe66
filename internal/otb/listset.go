package otb

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/abort"
	"repro/internal/mem/epoch"
	"repro/internal/spin"
)

// nodeSeq hands out allocation ids used as the global lock-acquisition
// order across all OTB structures.
var nodeSeq atomic.Uint64

// lnode is an OTB linked-list node: the lazy-list layout (key, next, marked)
// plus a versioned semantic lock, which replaces the lazy list's mutex so
// that validation can sample versions.
type lnode struct {
	id     uint64
	key    int64
	next   atomic.Pointer[lnode]
	marked atomic.Bool
	lock   spin.VersionedLock
}

// lnodePool recycles list nodes. Nodes flow back in through epoch
// reclamation only (freeLNode is the Retire callback), so a pooled node is
// never reused while any pinned transaction could still reach it. Recycled
// nodes keep their allocation id (the lock-ordering identity stays unique)
// and their lock version (monotone, so readers holding a stale sample of the
// node's previous life fail validation instead of silently passing).
var lnodePool = sync.Pool{New: func() any {
	return &lnode{id: nodeSeq.Add(1)}
}}

func newLNode(key int64) *lnode {
	n := lnodePool.Get().(*lnode)
	n.key = key
	n.marked.Store(false)
	n.next.Store(nil)
	return n
}

// freeLNode is the epoch.Retire callback returning a reclaimed node to the
// pool. Top-level so Retire call sites do not allocate a closure.
func freeLNode(v any) { lnodePool.Put(v) }

// checkKey rejects the sentinel keys, which would otherwise alias the
// head/tail nodes and corrupt the structure.
func checkKey(key int64) {
	if key == math.MinInt64 || key == math.MaxInt64 {
		panic("otb: sentinel key out of range")
	}
}

// TraceKey maps a user key to a flight-recorder attribution key. Positive
// keys map to themselves so conflict tables stay readable; the rest are
// offset into the high half. The head sentinel lands on 0, which the
// recorder treats as "unattributed" — exactly right for a lock that guards
// no user key.
func TraceKey(key int64) uint64 {
	if key > 0 {
		return uint64(key)
	}
	return uint64(key) ^ (1 << 63)
}

// opKind identifies a set operation.
type opKind int8

const (
	opContains opKind = iota
	opAdd
	opRemove
)

// ListSet is the optimistically boosted linked-list set (paper Algorithms
// 1–3). Operations traverse the shared list unmonitored, record semantic
// read/write entries, and defer all physical modification to commit.
type ListSet struct {
	head *lnode
	// fullValidation disables the paper's per-operation validation
	// optimization (presentOnly entries) so every read entry validates full
	// adjacency — the ablation of Section 3.2.1's "optimized validation".
	fullValidation bool
}

// NewListSet creates an empty set. Keys exclude the int64 sentinels.
func NewListSet() *ListSet {
	tail := newLNode(math.MaxInt64)
	head := newLNode(math.MinInt64)
	head.next.Store(tail)
	return &ListSet{head: head}
}

// NewListSetFullValidation creates a set with the validation optimization
// ablated (every entry validates pred/curr adjacency). For the ablation
// benches only.
func NewListSetFullValidation() *ListSet {
	s := NewListSet()
	s.fullValidation = true
	return s
}

// listRead is a semantic read entry. presentOnly entries (successful
// contains / unsuccessful add) validate only that curr is still unmarked;
// all others validate full adjacency (pred unmarked, curr unmarked,
// pred.next == curr).
type listRead struct {
	pred, curr  *lnode
	presentOnly bool
}

// listWrite is a semantic write (redo) entry.
type listWrite struct {
	pred, curr *lnode
	key        int64
	isAdd      bool
}

// listState is the per-transaction state for one ListSet.
type listState struct {
	reads    []listRead
	writes   []listWrite
	locked   []*lnode // nodes semantically locked by this transaction
	lockSnap []uint64 // scratch: sampled lock versions during validation
	toLock   []*lnode // scratch: deduplicated lock targets during PreCommit
}

// Reset recycles the state for a new transaction.
func (st *listState) Reset() {
	st.reads = st.reads[:0]
	st.writes = st.writes[:0]
	st.locked = st.locked[:0]
	st.lockSnap = st.lockSnap[:0]
	st.toLock = st.toLock[:0]
}

// addToLock appends n to the PreCommit lock-target scratch unless present.
func (st *listState) addToLock(n *lnode) {
	if !slices.Contains(st.toLock, n) {
		st.toLock = append(st.toLock, n)
	}
}

func (s *ListSet) state(tx *Tx) *listState {
	return tx.Attach(s, func() any { return &listState{} }).(*listState)
}

// peekState returns the transaction's state for s without attaching.
func (s *ListSet) peekState(tx *Tx) *listState {
	st, _ := tx.peek(s).(*listState)
	return st
}

// Add inserts key within tx, returning false if already present.
func (s *ListSet) Add(tx *Tx, key int64) bool { return s.op(tx, key, opAdd) }

// Remove deletes key within tx, returning false if absent.
func (s *ListSet) Remove(tx *Tx, key int64) bool { return s.op(tx, key, opRemove) }

// Contains reports within tx whether key is present. Like the lazy list's
// contains — and unlike pessimistic boosting — it acquires no locks, ever.
func (s *ListSet) Contains(tx *Tx, key int64) bool { return s.op(tx, key, opContains) }

// op implements Algorithm 1: local write-set check, unmonitored traversal,
// post-validation, then recording of semantic reads and writes.
func (s *ListSet) op(tx *Tx, key int64, kind opKind) bool {
	checkKey(key)
	st := s.state(tx)
	tx.tr.Op(TraceKey(key))

	// Step 1: consult the local write set so the transaction reads its own
	// deferred writes; opposite operations on the same key eliminate.
	if i := st.findWrite(key); i >= 0 {
		isAdd := st.writes[i].isAdd
		switch {
		case isAdd && kind == opAdd:
			return false
		case isAdd && kind == opContains:
			return true
		case isAdd && kind == opRemove:
			st.deleteWrite(i)
			return true
		case !isAdd && kind == opAdd:
			st.deleteWrite(i)
			return true
		default: // pending remove: key locally absent
			return false
		}
	}

	// Step 2: unmonitored traversal, exactly as in the lazy list.
	pred := s.head
	curr := pred.next.Load()
	for curr.key < key {
		pred = curr
		curr = curr.next.Load()
	}

	// Step 3: post-validate the whole transaction (opacity).
	tx.PostValidate()

	// Step 4: compute the outcome and record semantic entries.
	present := curr.key == key && !curr.marked.Load()
	presentOnly := present && !s.fullValidation
	switch kind {
	case opContains:
		st.reads = append(st.reads, listRead{pred: pred, curr: curr, presentOnly: presentOnly})
		return present
	case opAdd:
		if present {
			st.reads = append(st.reads, listRead{pred: pred, curr: curr, presentOnly: presentOnly})
			return false
		}
		st.reads = append(st.reads, listRead{pred: pred, curr: curr})
		st.writes = append(st.writes, listWrite{pred: pred, curr: curr, key: key, isAdd: true})
		return true
	default: // opRemove
		if !present {
			st.reads = append(st.reads, listRead{pred: pred, curr: curr})
			return false
		}
		st.reads = append(st.reads, listRead{pred: pred, curr: curr})
		st.writes = append(st.writes, listWrite{pred: pred, curr: curr, key: key, isAdd: false})
		return true
	}
}

func (st *listState) findWrite(key int64) int {
	for i := range st.writes {
		if st.writes[i].key == key {
			return i
		}
	}
	return -1
}

func (st *listState) deleteWrite(i int) {
	last := len(st.writes) - 1
	st.writes[i] = st.writes[last]
	st.writes = st.writes[:last]
}

func (st *listState) owns(n *lnode) bool { return slices.Contains(st.locked, n) }

// involved appends the nodes whose locks guard entry e (curr only for
// presentOnly entries; pred and curr otherwise).
func (e *listRead) involved(buf []*lnode) []*lnode {
	if e.presentOnly {
		return append(buf, e.curr)
	}
	return append(buf, e.pred, e.curr)
}

// check re-evaluates the entry's semantic condition (Algorithm 2).
func (e *listRead) check() bool {
	if e.presentOnly {
		return !e.curr.marked.Load()
	}
	return !e.pred.marked.Load() && !e.curr.marked.Load() &&
		e.pred.next.Load() == e.curr
}

// ValidateWithLocks implements Algorithm 2's three phases: sample the
// involved locks (failing on foreign holders), re-check the semantic
// conditions, then confirm the sampled versions are unchanged, which makes
// the whole read set validate atomically.
func (s *ListSet) ValidateWithLocks(tx *Tx) bool {
	st := s.peekState(tx)
	if st == nil || len(st.reads) == 0 {
		return true
	}
	var scratch [2]*lnode
	st.lockSnap = st.lockSnap[:0]
	for i := range st.reads {
		for _, n := range st.reads[i].involved(scratch[:0]) {
			if st.owns(n) {
				st.lockSnap = append(st.lockSnap, ownedVersion)
				continue
			}
			v := n.lock.Sample()
			if spin.IsLocked(v) {
				tx.tr.ValidateFail(TraceKey(n.key))
				return false
			}
			st.lockSnap = append(st.lockSnap, v)
		}
	}
	if !s.ValidateWithoutLocks(tx) {
		return false
	}
	k := 0
	for i := range st.reads {
		for _, n := range st.reads[i].involved(scratch[:0]) {
			v := st.lockSnap[k]
			k++
			if v == ownedVersion {
				continue
			}
			if n.lock.Sample() != v {
				tx.tr.ValidateFail(TraceKey(n.key))
				return false
			}
		}
	}
	return true
}

// ownedVersion marks a lock-snapshot slot belonging to a node this
// transaction itself holds (valid by construction).
const ownedVersion = ^uint64(0)

// ValidateWithoutLocks re-checks only the semantic conditions of the read
// set.
func (s *ListSet) ValidateWithoutLocks(tx *Tx) bool {
	st := s.peekState(tx)
	if st == nil {
		return true
	}
	for i := range st.reads {
		if !st.reads[i].check() {
			tx.tr.ValidateFail(TraceKey(st.reads[i].curr.key))
			return false
		}
	}
	return true
}

// PreCommit acquires the semantic locks covering the write set: pred for
// adds, pred and curr for removes (the lazy-list locking rule), deduplicated
// and ordered by allocation id. Any busy lock aborts.
func (s *ListSet) PreCommit(tx *Tx) {
	st := s.peekState(tx)
	if st == nil || len(st.writes) == 0 {
		return
	}
	st.toLock = st.toLock[:0]
	for i := range st.writes {
		st.addToLock(st.writes[i].pred)
		if !st.writes[i].isAdd {
			st.addToLock(st.writes[i].curr)
		}
	}
	slices.SortFunc(st.toLock, func(a, b *lnode) int { return cmp.Compare(a.id, b.id) })
	for _, n := range st.toLock {
		if _, ok := n.lock.TryLock(); !ok {
			tx.Counters().IncCAS()
			tx.tr.LockBusy(TraceKey(n.key))
			abort.Retry(abort.LockBusy)
		}
		tx.tr.Lock(TraceKey(n.key))
		st.locked = append(st.locked, n)
	}
}

// OnCommit publishes the write set (Algorithm 3): entries are applied in
// descending key order, each re-traversing from its saved pred so that
// earlier publications by the same transaction are observed. Inserted nodes
// are created locked and released in PostCommit.
func (s *ListSet) OnCommit(tx *Tx) {
	st := s.peekState(tx)
	if st == nil || len(st.writes) == 0 {
		return
	}
	slices.SortFunc(st.writes, func(a, b listWrite) int { return cmp.Compare(b.key, a.key) })
	for i := range st.writes {
		w := &st.writes[i]
		pred := w.pred
		curr := pred.next.Load()
		for curr.key < w.key {
			pred = curr
			curr = pred.next.Load()
		}
		if w.isAdd {
			n := newLNode(w.key)
			n.lock.TryLock() // created locked until the commit finishes
			n.next.Store(curr)
			pred.next.Store(n)
			st.locked = append(st.locked, n)
		} else {
			// curr must be the victim: it is locked by us, so no other
			// transaction can have unlinked it. Once unlinked it is retired:
			// the epoch scheme recycles it into the node pool after every
			// transaction that could still be traversing it has unpinned.
			curr.marked.Store(true)
			pred.next.Store(curr.next.Load())
			tx.retire(curr, freeLNode)
		}
	}
}

// PostCommit releases all semantic locks, bumping their versions so
// concurrent validations observe the commit.
func (s *ListSet) PostCommit(tx *Tx) {
	st := s.peekState(tx)
	if st == nil {
		return
	}
	for _, n := range st.locked {
		n.lock.Unlock()
		tx.tr.Unlock(TraceKey(n.key))
	}
	st.locked = st.locked[:0]
}

// OnAbort releases locks held by an aborting transaction. Nothing was
// published (OnCommit cannot fail), so versions are restored unchanged to
// avoid spuriously invalidating concurrent readers.
func (s *ListSet) OnAbort(tx *Tx) {
	st := s.peekState(tx)
	if st == nil {
		return
	}
	for _, n := range st.locked {
		n.lock.UnlockUnchanged()
	}
	st.locked = st.locked[:0]
}

// Dirty reports whether the transaction has pending writes on this set.
func (s *ListSet) Dirty(tx *Tx) bool {
	st := s.peekState(tx)
	return st != nil && len(st.writes) > 0
}

// Len counts the unmarked elements (not linearizable; tests and reporting).
// The traversal pins an epoch guard so concurrent removals cannot recycle
// nodes out from under it.
func (s *ListSet) Len() int {
	g := epoch.Default.Enter()
	defer g.Exit()
	n := 0
	for curr := s.head.next.Load(); curr.key != math.MaxInt64; curr = curr.next.Load() {
		if !curr.marked.Load() {
			n++
		}
	}
	return n
}

// Keys returns the unmarked keys in ascending order (tests only). Pinned
// like Len.
func (s *ListSet) Keys() []int64 {
	g := epoch.Default.Enter()
	defer g.Exit()
	var out []int64
	for curr := s.head.next.Load(); curr.key != math.MaxInt64; curr = curr.next.Load() {
		if !curr.marked.Load() {
			out = append(out, curr.key)
		}
	}
	return out
}

var _ Datastructure = (*ListSet)(nil)
