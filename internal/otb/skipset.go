package otb

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/abort"
	"repro/internal/mem/epoch"
	"repro/internal/spin"
)

// maxLevel is the number of skip-list levels.
const maxLevel = 20

// snode is the OTB skip-list node: the lazy skip-list layout plus a
// versioned semantic lock and a value slot. Sets leave the value 0. It is
// atomic so lock-free readers and committing writers are race-free; value
// consistency is guaranteed by value-based semantic validation, as NOrec
// does for memory words.
type snode struct {
	id          uint64
	key         int64
	val         atomic.Uint64
	next        [maxLevel]atomic.Pointer[snode]
	topLevel    int
	marked      atomic.Bool
	fullyLinked atomic.Bool
	lock        spin.VersionedLock
}

// snodePool recycles skip-list nodes through epoch reclamation, like
// lnodePool: recycled towers keep their allocation id and lock version, and
// a node reaches the pool only after every transaction that could have been
// traversing it has unpinned.
var snodePool = sync.Pool{New: func() any {
	return &snode{id: nodeSeq.Add(1)}
}}

func newSNode(key int64, topLevel int) *snode {
	n := snodePool.Get().(*snode)
	n.key = key
	n.topLevel = topLevel
	n.marked.Store(false)
	n.fullyLinked.Store(false)
	return n
}

// freeSNode is the epoch.Retire callback returning a reclaimed tower to the
// pool. The tower's next pointers are cleared so a pooled node does not
// retain arbitrary subgraphs of a dead structure.
func freeSNode(v any) {
	n := v.(*snode)
	for l := 0; l <= n.topLevel; l++ {
		n.next[l].Store(nil)
	}
	snodePool.Put(n)
}

// skipList is the one optimistically boosted skip list (Section 3.2.1)
// behind both SkipSet and Map: the same three-step structure as ListSet,
// with per-level predecessor arrays in the semantic entries and the paper's
// level-aware validation optimizations. A set is this list with every value
// 0; a map adds reads of a node's value and in-place value updates. The
// list, not its wrapper, is what a transaction attaches.
type skipList struct {
	head *snode
	// fullValidation ablates the level-aware validation optimization:
	// a read that found its key validates adjacency at every level of the
	// node's tower instead of the node alone. Sets only — such an entry
	// does not guard the node's value.
	fullValidation bool
}

// newSkipList creates an empty list bounded by the int64 sentinels.
func newSkipList() skipList {
	tail := newSNode(math.MaxInt64, maxLevel-1)
	tail.fullyLinked.Store(true)
	head := newSNode(math.MinInt64, maxLevel-1)
	for i := range head.next {
		head.next[i].Store(tail)
	}
	head.fullyLinked.Store(true)
	return skipList{head: head}
}

// SkipSet is the optimistically boosted skip-list set.
type SkipSet struct{ skipList }

// NewSkipSet creates an empty set. Keys exclude the int64 sentinels.
func NewSkipSet() *SkipSet { return &SkipSet{newSkipList()} }

// NewSkipSetFullValidation creates a set with the level-aware validation
// optimization ablated. For the ablation benches only.
func NewSkipSetFullValidation() *SkipSet {
	s := NewSkipSet()
	s.fullValidation = true
	return s
}

// skipReadKind selects which of the paper's validation rules applies.
type skipReadKind int8

const (
	// skipPresent guards a key that was found: its node is still live and
	// still holds the observed value (successful contains / get,
	// unsuccessful add, put on a present key).
	skipPresent skipReadKind = iota
	// skipLevels guards adjacency of preds and succs on levels 0..topLevel:
	// the bottom level only for a key that was not found (unsuccessful
	// remove / contains / get), the whole tower for a successful insert or
	// delete.
	skipLevels
)

// skipRead is a semantic read entry.
type skipRead struct {
	kind     skipReadKind
	curr     *snode // the key's node (present cases); nil for absent reads
	val      uint64 // observed value for skipPresent entries
	topLevel int    // highest level validated for skipLevels entries
	preds    [maxLevel]*snode
	succs    [maxLevel]*snode
}

// skipWriteKind identifies the deferred operation of a write entry.
type skipWriteKind int8

const (
	skipInsert skipWriteKind = iota
	skipUpdate               // maps only: store val into victim, locking only it
	skipDelete
)

// skipWrite is a semantic write (redo) entry.
type skipWrite struct {
	kind     skipWriteKind
	key      int64
	val      uint64
	topLevel int    // tower height: new node's (insert) or victim's (delete)
	victim   *snode // update/delete target
	preds    [maxLevel]*snode
}

// skipState is the per-transaction state for one skipList.
type skipState struct {
	reads    []skipRead
	writes   []skipWrite
	locked   []*snode
	lockSnap []uint64
	toLock   []*snode // scratch: deduplicated lock targets during PreCommit
}

// Reset recycles the state for a new transaction.
func (st *skipState) Reset() {
	st.reads = st.reads[:0]
	st.writes = st.writes[:0]
	st.locked = st.locked[:0]
	st.lockSnap = st.lockSnap[:0]
	st.toLock = st.toLock[:0]
}

// addToLock appends n to the PreCommit lock-target scratch unless present.
func (st *skipState) addToLock(n *snode) {
	if !slices.Contains(st.toLock, n) {
		st.toLock = append(st.toLock, n)
	}
}

func (s *skipList) peekState(tx *Tx) *skipState {
	st, _ := tx.peek(s).(*skipState)
	return st
}

// begin opens one operation on key: it attaches the list to tx and returns
// the transaction's semantic read/write sets for it.
func (s *skipList) begin(tx *Tx, key int64) *skipState {
	checkKey(key)
	tx.tr.Op(TraceKey(key))
	return tx.Attach(s, func() any { return &skipState{} }).(*skipState)
}

// find fills preds/succs with key's per-level neighbours in the shared
// structure and returns the highest level at which key was found, or -1.
func (s *skipList) find(key int64, preds, succs *[maxLevel]*snode) int {
	found := -1
	pred := s.head
	for level := maxLevel - 1; level >= 0; level-- {
		curr := pred.next[level].Load()
		for curr.key < key {
			pred = curr
			curr = pred.next[level].Load()
		}
		if found == -1 && curr.key == key {
			found = level
		}
		preds[level] = pred
		succs[level] = curr
	}
	return found
}

// locate runs the unmonitored probabilistic traversal for key, waits out a
// found node another commit is still linking (as in the lazy skip list) and
// post-validates the whole transaction. It returns key's node when the key
// is present, nil otherwise; preds/succs hold the traversal either way.
func (s *skipList) locate(tx *Tx, key int64, preds, succs *[maxLevel]*snode) *snode {
	found := s.find(key, preds, succs)
	if found != -1 {
		var b spin.Backoff
		for !succs[found].fullyLinked.Load() {
			b.Wait()
		}
	}
	tx.PostValidate()
	if found == -1 || succs[found].marked.Load() {
		return nil
	}
	return succs[found]
}

// readPresent records that key's node curr was seen present and returns
// the value it held.
func (s *skipList) readPresent(st *skipState, curr *snode, preds, succs *[maxLevel]*snode) uint64 {
	v := curr.val.Load()
	if s.fullValidation {
		st.reads = append(st.reads, skipRead{kind: skipLevels, curr: curr, topLevel: curr.topLevel, preds: *preds, succs: *succs})
	} else {
		st.reads = append(st.reads, skipRead{kind: skipPresent, curr: curr, val: v})
	}
	return v
}

// readAbsent records that the key was seen absent between preds[0] and
// succs[0].
func (st *skipState) readAbsent(preds, succs *[maxLevel]*snode) {
	st.reads = append(st.reads, skipRead{kind: skipLevels, preds: *preds, succs: *succs})
}

// randomTower draws a tower height with geometric distribution p=1/2.
func randomTower() int {
	lvl := 0
	for lvl < maxLevel-1 && rand.Uint64()&1 == 1 {
		lvl++
	}
	return lvl
}

// insert defers linking a new node for an absent key. The tower height is
// drawn now, so the read entry guards exactly the levels the commit links.
func (st *skipState) insert(key int64, val uint64, preds, succs *[maxLevel]*snode) {
	top := randomTower()
	st.reads = append(st.reads, skipRead{kind: skipLevels, topLevel: top, preds: *preds, succs: *succs})
	st.writes = append(st.writes, skipWrite{kind: skipInsert, key: key, val: val, topLevel: top, preds: *preds})
}

// remove records the read guarding every level of present node curr and
// returns the write entry that unlinks it.
func (st *skipState) remove(curr *snode, preds, succs *[maxLevel]*snode) skipWrite {
	st.reads = append(st.reads, skipRead{
		kind: skipLevels, curr: curr, topLevel: curr.topLevel, preds: *preds, succs: *succs,
	})
	return skipWrite{
		kind: skipDelete, key: curr.key, topLevel: curr.topLevel, victim: curr, preds: *preds,
	}
}

// Add inserts key within tx, returning false if already present.
func (s *SkipSet) Add(tx *Tx, key int64) bool { return s.op(tx, key, opAdd) }

// Remove deletes key within tx, returning false if absent.
func (s *SkipSet) Remove(tx *Tx, key int64) bool { return s.op(tx, key, opRemove) }

// Contains reports within tx whether key is present, lock-free.
func (s *SkipSet) Contains(tx *Tx, key int64) bool { return s.op(tx, key, opContains) }

func (s *SkipSet) op(tx *Tx, key int64, kind opKind) bool {
	st := s.begin(tx, key)

	// Step 1: local write-set check with elimination (as in ListSet).
	if i := st.findWrite(key); i >= 0 {
		isAdd := st.writes[i].kind == skipInsert
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
		default:
			return false
		}
	}

	// Steps 2 and 3: unmonitored traversal, then post-validation.
	var preds, succs [maxLevel]*snode
	curr := s.locate(tx, key, &preds, &succs)

	// Step 4: outcome and semantic entries.
	switch {
	case curr != nil && kind == opRemove:
		st.writes = append(st.writes, st.remove(curr, &preds, &succs))
		return true
	case curr != nil:
		s.readPresent(st, curr, &preds, &succs)
		return kind == opContains
	case kind == opAdd:
		st.insert(key, 0, &preds, &succs)
		return true
	default:
		st.readAbsent(&preds, &succs)
		return false
	}
}

func (st *skipState) findWrite(key int64) int {
	for i := range st.writes {
		if st.writes[i].key == key {
			return i
		}
	}
	return -1
}

func (st *skipState) deleteWrite(i int) {
	last := len(st.writes) - 1
	st.writes[i] = st.writes[last]
	st.writes = st.writes[:last]
}

func (st *skipState) owns(n *snode) bool { return slices.Contains(st.locked, n) }

// involved appends the nodes whose locks guard entry e.
func (e *skipRead) involved(buf []*snode) []*snode {
	if e.kind == skipPresent {
		return append(buf, e.curr)
	}
	for l := 0; l <= e.topLevel; l++ {
		buf = append(buf, e.preds[l], e.succs[l])
	}
	return buf
}

// check re-evaluates the entry's semantic condition using the paper's
// level-aware rules.
func (e *skipRead) check() bool {
	if e.kind == skipPresent {
		return !e.curr.marked.Load() && e.curr.val.Load() == e.val
	}
	for l := 0; l <= e.topLevel; l++ {
		if e.preds[l].marked.Load() || e.succs[l].marked.Load() ||
			e.preds[l].next[l].Load() != e.succs[l] {
			return false
		}
	}
	return true
}

// ValidateWithLocks implements the three-phase validation of Algorithm 2
// over skip-list entries.
func (s *skipList) ValidateWithLocks(tx *Tx) bool {
	st := s.peekState(tx)
	if st == nil || len(st.reads) == 0 {
		return true
	}
	var scratch [2 * maxLevel]*snode
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

// ValidateWithoutLocks re-checks only the semantic conditions.
func (s *skipList) ValidateWithoutLocks(tx *Tx) bool {
	st := s.peekState(tx)
	if st == nil {
		return true
	}
	for i := range st.reads {
		if !st.reads[i].check() {
			tx.tr.ValidateFail(TraceKey(st.reads[i].traceNode().key))
			return false
		}
	}
	return true
}

// traceNode names a read entry for conflict attribution: the key's own
// node when the read saw it present, otherwise the bottom-level successor
// bounding the searched range (curr is nil for absent reads).
func (e *skipRead) traceNode() *snode {
	if e.curr != nil {
		return e.curr
	}
	return e.succs[0]
}

// PreCommit locks, in allocation order, the distinct predecessor towers of
// every insert and delete (all levels), the victims of deletes, and the
// target nodes of updates.
func (s *skipList) PreCommit(tx *Tx) {
	st := s.peekState(tx)
	if st == nil || len(st.writes) == 0 {
		return
	}
	st.toLock = st.toLock[:0]
	for i := range st.writes {
		w := &st.writes[i]
		if w.kind != skipUpdate {
			for l := 0; l <= w.topLevel; l++ {
				st.addToLock(w.preds[l])
			}
		}
		if w.kind != skipInsert {
			st.addToLock(w.victim)
		}
	}
	slices.SortFunc(st.toLock, func(a, b *snode) int { return cmp.Compare(a.id, b.id) })
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

// OnCommit publishes the write set in descending key order, re-traversing
// each level from the saved predecessor so that this transaction's earlier
// publications are observed (each level independently, as the paper notes);
// updates store their value in place.
func (s *skipList) OnCommit(tx *Tx) {
	st := s.peekState(tx)
	if st == nil || len(st.writes) == 0 {
		return
	}
	slices.SortFunc(st.writes, func(a, b skipWrite) int { return cmp.Compare(b.key, a.key) })
	for i := range st.writes {
		w := &st.writes[i]
		switch w.kind {
		case skipUpdate:
			w.victim.val.Store(w.val)
		case skipInsert:
			n := newSNode(w.key, w.topLevel)
			n.val.Store(w.val)
			n.lock.TryLock() // created locked until the commit finishes
			// Link bottom-up: once a reader can reach n at some level, all
			// lower next pointers are already set.
			for l := 0; l <= w.topLevel; l++ {
				pred, succ := retraverse(w.preds[l], w.key, l)
				n.next[l].Store(succ)
				pred.next[l].Store(n)
			}
			n.fullyLinked.Store(true)
			st.locked = append(st.locked, n)
		default: // skipDelete
			w.victim.marked.Store(true)
			for l := w.topLevel; l >= 0; l-- {
				pred, _ := retraverse(w.preds[l], w.key, l)
				pred.next[l].Store(w.victim.next[l].Load())
			}
			// Fully unlinked; recycle once concurrent traversals unpin.
			tx.retire(w.victim, freeSNode)
		}
	}
}

// retraverse advances from the saved predecessor to the current (pred,
// succ) pair for key at the given level. Only nodes written by this same
// commit can have appeared in the interval, so the walk is short and safe.
func retraverse(pred *snode, key int64, level int) (*snode, *snode) {
	curr := pred.next[level].Load()
	for curr.key < key {
		pred = curr
		curr = pred.next[level].Load()
	}
	return pred, curr
}

// PostCommit releases all semantic locks, bumping versions.
func (s *skipList) PostCommit(tx *Tx) {
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

// OnAbort releases locks without publishing, restoring versions.
func (s *skipList) OnAbort(tx *Tx) {
	st := s.peekState(tx)
	if st == nil {
		return
	}
	for _, n := range st.locked {
		n.lock.UnlockUnchanged()
	}
	st.locked = st.locked[:0]
}

// Dirty reports whether the transaction has pending writes on this list.
func (s *skipList) Dirty(tx *Tx) bool {
	st := s.peekState(tx)
	return st != nil && len(st.writes) > 0
}

// walk calls visit on each present node in ascending key order until visit
// returns false. Not linearizable (tests and reporting). The traversal pins
// an epoch guard so concurrent removals cannot recycle towers out from
// under it.
func (s *skipList) walk(visit func(*snode) bool) {
	g := epoch.Default.Enter()
	defer g.Exit()
	for curr := s.head.next[0].Load(); curr.key != math.MaxInt64; curr = curr.next[0].Load() {
		if curr.fullyLinked.Load() && !curr.marked.Load() && !visit(curr) {
			return
		}
	}
}

// Len counts the present elements (not linearizable; tests and reporting).
func (s *skipList) Len() int {
	n := 0
	s.walk(func(*snode) bool { n++; return true })
	return n
}

// Min returns the smallest present key in the shared structure, outside
// any transaction.
func (s *SkipSet) Min() (key int64, ok bool) {
	s.walk(func(n *snode) bool { key, ok = n.key, true; return false })
	return key, ok
}

// Keys returns the present keys in ascending order (tests and snapshots).
func (s *SkipSet) Keys() []int64 {
	var out []int64
	s.walk(func(n *snode) bool { out = append(out, n.key); return true })
	return out
}

var _ Datastructure = (*SkipSet)(nil)
