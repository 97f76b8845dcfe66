package otb

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/abort"
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

// ListSet is the optimistically boosted linked-list set (paper Algorithms
// 1–3). Operations traverse the shared list unmonitored, record semantic
// read/write entries, and defer all physical modification to commit. Its
// node, allocation, search and walk are conc.ListCore, the lazy list's own;
// the node's word is its versioned semantic lock, and its slab slot the
// lock-acquisition order.
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
	set    *ListSet
	reads  []listRead
	writes []listWrite
	// locked holds the nodes semantically locked by this transaction: after
	// PreCommit in slot order (owns searches it during commit validation),
	// then the nodes OnCommit creates.
	locked   []*conc.ListNode
	lockSnap []uint32         // scratch: sampled lock words during validation
	toLock   []*conc.ListNode // scratch: PreCommit's lock targets

	view counterView // the transaction's view of the list's commit counter
}

// Reset recycles the state for a new transaction.
func (st *listState) Reset() {
	st.view.reset()
	st.reads = st.reads[:0]
	st.writes = st.writes[:0]
	st.locked = st.locked[:0]
	st.lockSnap = st.lockSnap[:0]
	st.toLock = st.toLock[:0]
}

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

// owns reports whether this transaction holds n's lock: a binary search of
// the slot-ordered lock list PreCommit built. Only commit validation asks,
// and it runs before OnCommit appends anything.
func (st *listState) owns(n *conc.ListNode) bool {
	_, ok := slices.BinarySearchFunc(st.locked, n.Slot(), func(m *conc.ListNode, i uint32) int { return cmp.Compare(m.Slot(), i) })
	return ok
}

// involved appends the nodes whose locks guard entry e (curr only for
// presentOnly entries; pred and curr otherwise).
func (e *listRead) involved(buf []*conc.ListNode) []*conc.ListNode {
	if e.presentOnly {
		return append(buf, e.curr)
	}
	return append(buf, e.pred, e.curr)
}

// check re-evaluates the entry's semantic condition (Algorithm 2).
func (e *listRead) check() bool {
	if e.presentOnly {
		return !e.curr.Marked()
	}
	return !e.pred.Marked() && !e.curr.Marked() &&
		e.pred.Next() == e.curr
}

// ValidateWithLocks implements Algorithm 2's three phases: sample the
// involved locks (failing on foreign holders), re-check the semantic
// conditions, then confirm the sampled versions are unchanged, which makes
// the whole read set validate atomically.
func (st *listState) ValidateWithLocks(tx *Tx) bool {
	if len(st.reads) == 0 {
		return true
	}
	var scratch [2]*conc.ListNode
	held := len(st.locked) > 0 // only commit validation runs with locks held
	st.lockSnap = st.lockSnap[:0]
	for i := range st.reads {
		for _, n := range st.reads[i].involved(scratch[:0]) {
			if held && st.owns(n) {
				st.lockSnap = append(st.lockSnap, ownedVersion)
				continue
			}
			v := n.Word().Load()
			if mem.IsLocked(v) {
				tx.LockSeen(TraceKey(n.Key))
				return false
			}
			st.lockSnap = append(st.lockSnap, v)
		}
	}
	if !st.ValidateWithoutLocks(tx) {
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
			if n.Word().Load() != v {
				tx.tr.ValidateFail(TraceKey(n.Key))
				return false
			}
		}
	}
	return true
}

// ownedVersion marks a lock-snapshot slot belonging to a node this
// transaction itself holds (valid by construction). It is a locked word, so
// no sample that phase 1 keeps can equal it.
const ownedVersion = ^uint32(0)

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

// PreCommit announces the commit on the list's counter, then acquires the
// semantic locks covering the write set: pred for adds, pred and curr for
// removes (the lazy-list locking rule), collected with repeats, then
// ordered by slab slot (unique per node; TryLock-or-abort never waits, so
// any fixed order will do) and deduplicated. Any busy lock aborts.
func (st *listState) PreCommit(tx *Tx) {
	if len(st.writes) == 0 {
		return
	}
	st.set.commits.announce(&st.view)
	st.toLock = st.toLock[:0]
	for i := range st.writes {
		st.toLock = append(st.toLock, st.writes[i].pred)
		if !st.writes[i].isAdd {
			st.toLock = append(st.toLock, st.writes[i].curr)
		}
	}
	slices.SortFunc(st.toLock, func(a, b *conc.ListNode) int { return cmp.Compare(a.Slot(), b.Slot()) })
	st.toLock = slices.Compact(st.toLock)
	for _, n := range st.toLock {
		if !n.Word().TryLock() {
			tx.Counters().IncCAS()
			tx.tr.LockBusy(TraceKey(n.Key))
			abort.Retry(abort.LockBusy)
		}
		tx.tr.Lock(TraceKey(n.Key))
		st.locked = append(st.locked, n)
	}
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
			n.Word().TryLock() // created locked until the commit finishes
			pred.Link(n)
			st.locked = append(st.locked, n)
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

// PostCommit releases all semantic locks, bumping their versions so
// concurrent validations observe the commit.
func (st *listState) PostCommit(tx *Tx) {
	for _, n := range st.locked {
		n.Word().Unlock()
		tx.tr.Unlock(TraceKey(n.Key))
	}
	st.locked = st.locked[:0]
}

// OnAbort releases locks held by an aborting transaction. Nothing was
// published (OnCommit cannot fail), so versions are restored unchanged to
// avoid spuriously invalidating concurrent readers.
func (st *listState) OnAbort(tx *Tx) {
	for _, n := range st.locked {
		n.Word().UnlockUnchanged()
	}
	st.locked = st.locked[:0]
	st.set.commits.settle(&st.view)
}

// Dirty reports whether the transaction has pending writes on this set.
func (st *listState) Dirty(tx *Tx) bool { return len(st.writes) > 0 }

// Len counts the unmarked elements (not linearizable; tests and reporting).
func (s *ListSet) Len() int { return s.core.Len() }

// Keys returns the unmarked keys in ascending order (tests only).
func (s *ListSet) Keys() []int64 { return s.core.Keys() }

var _ Datastructure = (*listState)(nil)
