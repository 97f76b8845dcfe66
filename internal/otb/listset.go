package otb

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/conc"
	"repro/internal/mem"
)

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

// eliminate is Algorithm 1's step 1 for an op on a key the transaction has a
// pending write for: the op reads its own deferred write, and opposite
// operations on the key cancel. It returns the op's result and whether the
// pending write is dropped.
func eliminate(pendingAdd bool, kind opKind) (ok, drop bool) {
	if pendingAdd && kind == opRemove || !pendingAdd && kind == opAdd {
		return true, true
	}
	return pendingAdd && kind == opContains, false
}

// ListSet is the optimistically boosted linked-list set (paper Algorithms
// 1–3). Operations traverse the shared list unmonitored, record semantic
// read/write entries, and defer all physical modification to commit. Its
// node, allocation, search and walk are conc.ListCore, the lazy list's own;
// the node's word is its versioned semantic lock, in a LockSet.
type ListSet struct {
	core conc.ListCore
	slot Slot
	// fullValidation disables the paper's per-operation validation
	// optimization (presentOnly entries) so every read entry validates full
	// adjacency — the ablation of Section 3.2.1's "optimized validation".
	fullValidation bool

	commits commitCounter
}

// NewListSet creates an empty set. Keys exclude the int64 sentinels.
func NewListSet() *ListSet { return newListSetIn(mem.NewSlab[conc.ListNode]()) }

// newListSetIn creates an empty set drawing its nodes from slab.
func newListSetIn(slab *mem.Slab[conc.ListNode]) *ListSet {
	s := &ListSet{}
	s.slot = NewSlot(func() Datastructure { return &listState{set: s} })
	s.core.Init(slab)
	return s
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
	pred, curr  *conc.ListNode
	presentOnly bool
}

// listWrite is a semantic write (redo) entry.
type listWrite struct {
	pred, curr *conc.ListNode
	key        int64
	isAdd      bool
}

// listState is the per-transaction state for one ListSet, and the
// Datastructure hooks that drive it.
type listState struct {
	LockSet // the nodes' words
	set     *ListSet
	reads   []listRead
	writes  []listWrite

	view counterView // the transaction's view of the list's commit counter
}

// Reset recycles the state for a new transaction.
func (st *listState) Reset() {
	st.view.reset()
	st.reads = st.reads[:0]
	st.writes = st.writes[:0]
	st.LockSet.Reset()
}

func (st *listState) revalidate(tx *Tx) bool { return st.set.commits.revalidate(tx, st, &st.view) }

func (s *ListSet) state(tx *Tx) *listState {
	return tx.Attach(&s.slot).(*listState)
}

// Add inserts key within tx, returning false if already present.
func (s *ListSet) Add(tx *Tx, key int64) bool { return s.op(tx, key, opAdd) }

// Remove deletes key within tx, returning false if absent.
func (s *ListSet) Remove(tx *Tx, key int64) bool { return s.op(tx, key, opRemove) }

// Contains reports within tx whether key is present. Like the lazy list's
// contains — and unlike pessimistic boosting — it acquires no locks, ever.
func (s *ListSet) Contains(tx *Tx, key int64) bool { return s.op(tx, key, opContains) }

// op implements Algorithm 1: local write-set check, unmonitored traversal,
// recording of semantic reads and writes, then post-validation. Algorithm 1
// post-validates before it records; here the op's own entries are recorded
// first, as NOrec validates the value it has just read, so that the
// validation proves the outcome held at one instant with every other entry.
func (s *ListSet) op(tx *Tx, key int64, kind opKind) bool {
	checkKey(key)
	st := s.state(tx)
	tx.tr.Op(TraceKey(key))

	// Step 1: consult the local write set.
	if i := st.findWrite(key); i >= 0 {
		ok, drop := eliminate(st.writes[i].isAdd, kind)
		if drop {
			st.deleteWrite(i)
		}
		return ok
	}

	// Step 2: unmonitored traversal, exactly as in the lazy list.
	start := s.commits.load()
	pred, curr := s.core.Advance(s.core.Head, key)
	present := curr.Key == key && !curr.Marked()
	st.view.traversed(start, len(st.reads) > 0)

	// Step 3: compute the outcome and record semantic entries.
	var ok bool
	switch {
	case present && kind == opRemove:
		st.reads = append(st.reads, listRead{pred: pred, curr: curr})
		st.writes = append(st.writes, listWrite{pred: pred, curr: curr, key: key, isAdd: false})
		ok = true
	case present:
		st.reads = append(st.reads, listRead{pred: pred, curr: curr, presentOnly: !s.fullValidation})
		ok = kind == opContains
	case kind == opAdd:
		st.reads = append(st.reads, listRead{pred: pred, curr: curr})
		st.writes = append(st.writes, listWrite{pred: pred, curr: curr, key: key, isAdd: true})
		ok = true
	default:
		st.reads = append(st.reads, listRead{pred: pred, curr: curr})
	}

	// Step 4: post-validate the whole transaction, the new entries included
	// (opacity).
	tx.PostValidate()
	return ok
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

// guard adds the words whose locks guard entry e to ls: curr's for a
// presentOnly entry, pred's and curr's otherwise.
func (e *listRead) guard(ls *LockSet) {
	if !e.presentOnly {
		ls.Guard(e.pred.Word(), TraceKey(e.pred.Key))
	}
	ls.Guard(e.curr.Word(), TraceKey(e.curr.Key))
}

// check re-evaluates the entry's semantic condition (Algorithm 2).
func (e *listRead) check() bool {
	if e.presentOnly {
		return !e.curr.Marked()
	}
	return !e.pred.Marked() && !e.curr.Marked() &&
		e.pred.Next() == e.curr
}

// ValidateWithLocks is Algorithm 2 (LockSet.Validate) over the words every
// read entry rests on.
func (st *listState) ValidateWithLocks(tx *Tx) bool {
	for i := range st.reads {
		st.reads[i].guard(&st.LockSet)
	}
	return st.Validate(tx, st)
}

// ValidateWithoutLocks re-checks only the semantic conditions of the read
// set.
func (st *listState) ValidateWithoutLocks(tx *Tx) bool {
	st.view.checks += len(st.reads)
	for i := range st.reads {
		if !st.reads[i].check() {
			tx.tr.ValidateFail(TraceKey(st.reads[i].curr.Key))
			return false
		}
	}
	return true
}

// PreCommit announces the commit on the list's counter, then locks the
// nodes covering the write set: pred for adds, pred and curr for removes
// (the lazy-list locking rule). Any busy lock aborts.
func (st *listState) PreCommit(tx *Tx) {
	if len(st.writes) == 0 {
		return
	}
	st.set.commits.announce(&st.view)
	for i := range st.writes {
		w := &st.writes[i]
		st.Target(w.pred.Word(), TraceKey(w.pred.Key))
		if !w.isAdd {
			st.Target(w.curr.Word(), TraceKey(w.curr.Key))
		}
	}
	st.Lock(tx, false)
}

// OnCommit publishes the write set (Algorithm 3): entries are applied in
// descending key order, each re-traversing from its saved pred so that
// earlier publications by the same transaction are observed. Inserted nodes
// are created locked and released in PostCommit.
func (st *listState) OnCommit(tx *Tx) {
	if len(st.writes) == 0 {
		return
	}
	s := st.set
	slices.SortFunc(st.writes, func(a, b listWrite) int { return cmp.Compare(b.key, a.key) })
	s.commits.announce(&st.view) // a context that skips PreCommit (OTB-NOrec) announces here
	for i := range st.writes {
		w := &st.writes[i]
		pred, curr := s.core.Advance(w.pred, w.key)
		if w.isAdd {
			n := s.core.NewNode(w.key, pred, curr)
			st.LockNew(n.Word(), TraceKey(n.Key))
			pred.Link(n)
		} else {
			// curr must be the victim: it is locked by us, so no other
			// transaction can have unlinked it. Once unlinked it is retired:
			// the epoch scheme returns its slot to the slab after every
			// transaction that could still be traversing it has unpinned.
			pred.Unlink(curr)
			tx.retire(curr, s.core.Nodes.Free)
		}
	}
	s.commits.settle(&st.view)
}

// PostCommit releases the locks, advancing their versions.
func (st *listState) PostCommit(tx *Tx) { st.Unlock(tx) }

// OnAbort releases the locks unchanged and settles the counter.
func (st *listState) OnAbort(tx *Tx) {
	st.UnlockUnchanged()
	st.set.commits.settle(&st.view)
}

// Dirty reports whether the transaction has pending writes on this set.
func (st *listState) Dirty(tx *Tx) bool { return len(st.writes) > 0 }

// Len counts the unmarked elements (not linearizable; tests and reporting).
func (s *ListSet) Len() int { return s.core.Len() }

// Keys returns the unmarked keys in ascending order (tests only).
func (s *ListSet) Keys() []int64 { return s.core.Keys() }

var _ Datastructure = (*listState)(nil)
