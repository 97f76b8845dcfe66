package otb

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/abort"
	"repro/internal/conc"
	"repro/internal/mem/epoch"
	"repro/internal/spin"
)

// maxLevel is the number of skip-list levels; towers are drawn by
// conc.RandomLevel, as the boosted skip list's are.
const maxLevel = conc.MaxLevel

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

// nodeSeq hands out allocation ids: the lock-acquisition order of skip-list
// towers, and the heap PQ's trace key.
var nodeSeq atomic.Uint64

// snodePool recycles skip-list nodes through epoch reclamation: recycled
// towers keep their allocation id and lock version, and a node reaches the
// pool only after every transaction that could have been traversing it has
// unpinned.
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
// with per-level predecessors in the semantic entries and the paper's
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

	commits commitCounter
}

// init makes s an empty list bounded by the int64 sentinels.
func (s *skipList) init() {
	tail := newSNode(math.MaxInt64, maxLevel-1)
	tail.fullyLinked.Store(true)
	head := newSNode(math.MinInt64, maxLevel-1)
	for i := range head.next {
		head.next[i].Store(tail)
	}
	head.fullyLinked.Store(true)
	s.head = head
}

// SkipSet is the optimistically boosted skip-list set.
type SkipSet struct{ skipList }

// NewSkipSet creates an empty set. Keys exclude the int64 sentinels.
func NewSkipSet() *SkipSet {
	s := &SkipSet{}
	s.init()
	return s
}

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

// skipRead is a semantic read entry. The levels a skipLevels entry guards
// live out of line, in the transaction's readLevels arena, so an entry costs
// as much as the levels it guards rather than maxLevel of them.
type skipRead struct {
	curr     *snode // the key's node (present cases); nil for absent reads
	val      uint64 // observed value for skipPresent entries
	off      int32  // skipLevels: index of level 0 in skipState.readLevels
	topLevel int32  // skipLevels: highest level validated
	kind     skipReadKind
}

// levelPair is the adjacency a skipLevels entry guards on one level.
type levelPair struct{ pred, succ *snode }

// skipWriteKind identifies the deferred operation of a write entry.
type skipWriteKind int8

const (
	skipInsert skipWriteKind = iota
	skipUpdate               // maps only: store val into victim, locking only it
	skipDelete
)

// skipWrite is a semantic write (redo) entry. An insert's or delete's
// per-level predecessors live in the transaction's writePreds arena.
type skipWrite struct {
	key      int64
	val      uint64
	victim   *snode // update/delete target
	off      int32  // insert/delete: index of level 0 in skipState.writePreds
	topLevel int32  // tower height: new node's (insert) or victim's (delete)
	kind     skipWriteKind
}

// lockSample is a lock version validation's first phase sampled and its
// third phase confirms unchanged.
type lockSample struct {
	n *snode
	v uint64
}

// writeRef names a write entry by position, carrying its key for sorting.
type writeRef struct {
	key int64
	i   int
}

// skipState is the per-transaction state for one skipList.
type skipState struct {
	reads      []skipRead
	writes     []skipWrite
	readLevels []levelPair // arena: levels 0..topLevel of each skipLevels read
	writePreds []*snode    // arena: levels 0..topLevel of each insert and delete
	// locked holds, after PreCommit, the acquired locks in id order (owns
	// searches it during commit validation); OnCommit then appends the
	// nodes it creates.
	locked   []*snode
	lockSnap []lockSample // scratch: validation's sampled lock versions
	toLock   []*snode     // scratch: PreCommit's lock targets
	order    []writeRef   // scratch: OnCommit's publication order

	view counterView // the transaction's view of the list's commit counter
}

func newSkipState() any {
	st := &skipState{}
	st.Reset()
	return st
}

// Reset recycles the state for a new transaction.
func (st *skipState) Reset() {
	st.view.reset()
	st.reads = st.reads[:0]
	st.writes = st.writes[:0]
	st.readLevels = st.readLevels[:0]
	st.writePreds = st.writePreds[:0]
	st.locked = st.locked[:0]
	st.lockSnap = st.lockSnap[:0]
	st.toLock = st.toLock[:0]
	st.order = st.order[:0]
}

// levelsOf returns the levels skipLevels entry e guards.
func (st *skipState) levelsOf(e *skipRead) []levelPair {
	return st.readLevels[e.off : e.off+e.topLevel+1]
}

// predsOf returns the per-level predecessors of insert or delete w.
func (st *skipState) predsOf(w *skipWrite) []*snode {
	return st.writePreds[w.off : w.off+w.topLevel+1]
}

// guard records a skipLevels entry over levels 0..top of a traversal; curr
// is the key's node, nil when the key was absent.
func (st *skipState) guard(curr *snode, top int, preds, succs *[maxLevel]*snode) {
	off := len(st.readLevels)
	for l := 0; l <= top; l++ {
		st.readLevels = append(st.readLevels, levelPair{preds[l], succs[l]})
	}
	st.reads = append(st.reads, skipRead{kind: skipLevels, curr: curr, off: int32(off), topLevel: int32(top)})
}

// savePreds copies levels 0..top of preds into the write arena and returns
// their offset.
func (st *skipState) savePreds(top int, preds *[maxLevel]*snode) int32 {
	off := len(st.writePreds)
	st.writePreds = append(st.writePreds, preds[:top+1]...)
	return int32(off)
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
	return tx.Attach(s, newSkipState).(*skipState)
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
// reads the outcome: key's node and value, or nil when absent. preds/succs
// hold the traversal. The op records its entries from them and only then
// post-validates, so that validation proves the outcome and every other
// entry held at one instant.
//
// An absent outcome rests on the bottom-level pair preds[0] → succs[0],
// which proves absence only if succs[0] does not hold key. It does when the
// traversal found key's node marked higher up: at the bottom it reached
// either that node, and the entry can only fail, or one a later commit
// inserted for key, and the entry would pass with key present. Both abort
// here.
func (s *skipList) locate(tx *Tx, st *skipState, key int64, preds, succs *[maxLevel]*snode) (curr *snode, val uint64) {
	start := s.commits.load()
	found := s.find(key, preds, succs)
	if found != -1 {
		var b spin.Backoff
		for !succs[found].fullyLinked.Load() {
			b.Wait()
		}
		if n := succs[found]; !n.marked.Load() {
			curr, val = n, n.val.Load()
		} else if succs[0].key == key {
			tx.tr.NoteKey(TraceKey(key))
			abort.Retry(abort.Conflict)
		}
	}
	st.view.traversed(start, len(st.reads) > 0)
	return curr, val
}

// readPresent records that key's node curr was seen present holding v.
func (s *skipList) readPresent(st *skipState, curr *snode, v uint64, preds, succs *[maxLevel]*snode) {
	if s.fullValidation {
		st.guard(curr, curr.topLevel, preds, succs)
	} else {
		st.reads = append(st.reads, skipRead{kind: skipPresent, curr: curr, val: v})
	}
}

// readAbsent records that the key was seen absent between preds[0] and
// succs[0].
func (st *skipState) readAbsent(preds, succs *[maxLevel]*snode) {
	st.guard(nil, 0, preds, succs)
}

// insert defers linking a new node for an absent key. The tower height is
// drawn now, so the read entry guards exactly the levels the commit links.
func (st *skipState) insert(key int64, val uint64, preds, succs *[maxLevel]*snode) {
	top := conc.RandomLevel()
	st.guard(nil, top, preds, succs)
	st.writes = append(st.writes, skipWrite{
		kind: skipInsert, key: key, val: val, topLevel: int32(top), off: st.savePreds(top, preds),
	})
}

// remove records the read guarding every level of present node curr and
// returns the write entry that unlinks it.
func (st *skipState) remove(curr *snode, preds, succs *[maxLevel]*snode) skipWrite {
	st.guard(curr, curr.topLevel, preds, succs)
	return skipWrite{
		kind: skipDelete, key: curr.key, topLevel: int32(curr.topLevel), victim: curr,
		off: st.savePreds(curr.topLevel, preds),
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

	// Step 2: unmonitored traversal.
	var preds, succs [maxLevel]*snode
	curr, val := s.locate(tx, st, key, &preds, &succs)

	// Step 3: outcome and semantic entries.
	var ok bool
	switch {
	case curr != nil && kind == opRemove:
		st.writes = append(st.writes, st.remove(curr, &preds, &succs))
		ok = true
	case curr != nil:
		s.readPresent(st, curr, val, &preds, &succs)
		ok = kind == opContains
	case kind == opAdd:
		st.insert(key, 0, &preds, &succs)
		ok = true
	default:
		st.readAbsent(&preds, &succs)
	}

	// Step 4: post-validation, the new entries included.
	tx.PostValidate()
	return ok
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

// owns reports whether this transaction holds n's lock: a binary search of
// the id-ordered lock list PreCommit built. Only commit validation finds
// locks held, and it runs before OnCommit appends anything.
func (st *skipState) owns(n *snode) bool {
	_, ok := slices.BinarySearchFunc(st.locked, n.id, func(m *snode, id uint64) int { return cmp.Compare(m.id, id) })
	return ok
}

// check re-evaluates entry e's semantic condition using the paper's
// level-aware rules.
func (st *skipState) check(e *skipRead) bool {
	if e.kind == skipPresent {
		return !e.curr.marked.Load() && e.curr.val.Load() == e.val
	}
	for l, lv := range st.levelsOf(e) {
		if lv.pred.marked.Load() || lv.succ.marked.Load() || lv.pred.next[l].Load() != lv.succ {
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
	held := len(st.locked) > 0 // only commit validation runs with locks held
	st.lockSnap = st.lockSnap[:0]
	// The nodes whose locks guard an entry: its node for a skipPresent
	// entry, pred and succ on every guarded level otherwise.
	for i := range st.reads {
		e := &st.reads[i]
		if e.kind == skipPresent {
			if !st.sample(tx, e.curr, held) {
				return false
			}
			continue
		}
		for _, lv := range st.levelsOf(e) {
			if !st.sample(tx, lv.pred, held) || !st.sample(tx, lv.succ, held) {
				return false
			}
		}
	}
	if !s.ValidateWithoutLocks(tx) {
		return false
	}
	for _, ls := range st.lockSnap {
		if ls.n.lock.Sample() != ls.v {
			tx.tr.ValidateFail(TraceKey(ls.n.key))
			return false
		}
	}
	return true
}

// sample is validation's first phase for one involved node: unless this
// transaction holds the lock itself (held says whether it holds any), it
// records the lock's version, failing if another transaction holds it.
func (st *skipState) sample(tx *Tx, n *snode, held bool) bool {
	if held && st.owns(n) {
		return true
	}
	v := n.lock.Sample()
	if spin.IsLocked(v) {
		tx.tr.ValidateFail(TraceKey(n.key))
		return false
	}
	st.lockSnap = append(st.lockSnap, lockSample{n, v})
	return true
}

// ValidateWithoutLocks re-checks only the semantic conditions.
func (s *skipList) ValidateWithoutLocks(tx *Tx) bool {
	st := s.peekState(tx)
	if st == nil {
		return true
	}
	st.view.checks += len(st.reads)
	for i := range st.reads {
		if e := &st.reads[i]; !st.check(e) {
			tx.tr.ValidateFail(TraceKey(st.traceNode(e).key))
			return false
		}
	}
	return true
}

// traceNode names read entry e for conflict attribution: the key's own node
// when the read saw it present, otherwise the bottom-level successor
// bounding the searched range (curr is nil for absent reads).
func (st *skipState) traceNode(e *skipRead) *snode {
	if e.curr != nil {
		return e.curr
	}
	return st.readLevels[e.off].succ
}

// PreCommit announces the commit on the list's counter, then locks, in
// allocation order, the distinct predecessor towers of every insert and
// delete (all levels), the victims of deletes, and the target nodes of
// updates. The targets are collected with repeats, then sorted and
// compacted.
func (s *skipList) PreCommit(tx *Tx) {
	st := s.peekState(tx)
	if st == nil || len(st.writes) == 0 {
		return
	}
	s.commits.announce(&st.view)
	st.toLock = st.toLock[:0]
	for i := range st.writes {
		w := &st.writes[i]
		if w.kind != skipUpdate {
			st.toLock = append(st.toLock, st.predsOf(w)...)
		}
		if w.kind != skipInsert {
			st.toLock = append(st.toLock, w.victim)
		}
	}
	slices.SortFunc(st.toLock, func(a, b *snode) int { return cmp.Compare(a.id, b.id) })
	st.toLock = slices.Compact(st.toLock)
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

// OnCommit publishes the write set in descending key order (through a
// sorted index of keys and positions), re-traversing each level from the
// saved predecessor so that this transaction's earlier publications are
// observed (each level independently, as the paper notes); updates store
// their value in place.
func (s *skipList) OnCommit(tx *Tx) {
	st := s.peekState(tx)
	if st == nil || len(st.writes) == 0 {
		return
	}
	st.order = st.order[:0]
	for i := range st.writes {
		st.order = append(st.order, writeRef{st.writes[i].key, i})
	}
	slices.SortFunc(st.order, func(a, b writeRef) int { return cmp.Compare(b.key, a.key) })
	s.commits.announce(&st.view) // a context that skips PreCommit (OTB-NOrec) announces here
	for _, r := range st.order {
		w := &st.writes[r.i]
		switch w.kind {
		case skipUpdate:
			w.victim.val.Store(w.val)
		case skipInsert:
			n := newSNode(w.key, int(w.topLevel))
			n.val.Store(w.val)
			n.lock.TryLock() // created locked until the commit finishes
			// Link bottom-up: once a reader can reach n at some level, all
			// lower next pointers are already set.
			for l, pred := range st.predsOf(w) {
				pred, succ := retraverse(pred, w.key, l)
				n.next[l].Store(succ)
				pred.next[l].Store(n)
			}
			n.fullyLinked.Store(true)
			st.locked = append(st.locked, n)
		default: // skipDelete
			w.victim.marked.Store(true)
			preds := st.predsOf(w)
			for l := len(preds) - 1; l >= 0; l-- {
				pred, _ := retraverse(preds[l], w.key, l)
				pred.next[l].Store(w.victim.next[l].Load())
			}
			// Fully unlinked; recycle once concurrent traversals unpin.
			tx.retire(w.victim, freeSNode)
		}
	}
	s.commits.settle(&st.view)
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
	s.commits.settle(&st.view)
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
