package otb

import (
	"cmp"
	"slices"

	"repro/internal/abort"
	"repro/internal/conc"
	"repro/internal/mem"
	"repro/internal/mem/epoch"
	"repro/internal/spin"
)

// maxLevel is the number of skip-list levels; towers are drawn by
// conc.RandomLevel, as the boosted skip list's are.
const maxLevel = conc.MaxLevel

// skipList is the one optimistically boosted skip list (Section 3.2.1)
// behind SkipSet, Map and SkipPQ: the same three-step structure as
// ListSet, with per-level predecessors in the semantic entries and the
// paper's level-aware validation optimizations. Its towers, live height and
// search are conc.SkipCore, the lazy skip list's own; what is OTB's is the
// semantic entries, validated and locked through a LockSet of the towers'
// words. A set is this list with every value 0; a map adds reads of a
// tower's value and in-place value updates. The list, not its wrapper, is
// what a transaction attaches.
type skipList struct {
	core conc.SkipCore
	slot Slot
	// fullValidation ablates the level-aware validation optimization:
	// a read that found its key validates adjacency at every level of the
	// node's tower instead of the node alone. Sets only — such an entry
	// does not guard the node's value.
	fullValidation bool

	commits commitCounter
}

// init makes s an empty list bounded by the int64 sentinels.
func (s *skipList) init() {
	s.core.Init()
	s.slot = NewSlot(func() Datastructure { return &skipState{list: s} })
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
	curr     *mem.Tower // the key's tower (present cases); nil for absent reads
	val      uint64     // observed value for skipPresent entries
	off      int32      // skipLevels: index of level 0 in skipState.readLevels
	topLevel int32      // skipLevels: highest level validated
	kind     skipReadKind
}

// levelPair is the adjacency a skipLevels entry guards on one level.
type levelPair struct{ pred, succ *mem.Tower }

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
	victim   *mem.Tower // update/delete target
	off      int32      // insert/delete: index of level 0 in skipState.writePreds
	topLevel int32      // tower height: new tower's (insert) or victim's (delete)
	kind     skipWriteKind
}

// writeRef names a write entry by position, carrying its key for sorting.
type writeRef struct {
	key int64
	i   int
}

// skipState is the per-transaction state for one skipList, and the
// Datastructure hooks that drive it.
type skipState struct {
	LockSet    // the towers' words
	list       *skipList
	reads      []skipRead
	writes     []skipWrite
	readLevels []levelPair  // arena: levels 0..topLevel of each skipLevels read
	writePreds []*mem.Tower // arena: levels 0..topLevel of each insert and delete
	order      []writeRef   // scratch: OnCommit's publication order

	view counterView // the transaction's view of the list's commit counter
}

// Reset recycles the state for a new transaction.
func (st *skipState) Reset() {
	st.view.reset()
	st.reads = st.reads[:0]
	st.writes = st.writes[:0]
	st.readLevels = st.readLevels[:0]
	st.writePreds = st.writePreds[:0]
	st.order = st.order[:0]
	st.LockSet.Reset()
}

func (st *skipState) revalidate(tx *Tx) bool { return st.list.commits.revalidate(tx, st, &st.view) }

// levelsOf returns the levels skipLevels entry e guards.
func (st *skipState) levelsOf(e *skipRead) []levelPair {
	return st.readLevels[e.off : e.off+e.topLevel+1]
}

// predsOf returns the per-level predecessors of insert or delete w.
func (st *skipState) predsOf(w *skipWrite) []*mem.Tower {
	return st.writePreds[w.off : w.off+w.topLevel+1]
}

// guard records a skipLevels entry over levels 0..top of traversal p,
// covering p up to top first; curr is the key's tower, nil when the key was
// absent.
func (st *skipState) guard(curr *mem.Tower, top int, p *conc.Path) {
	st.list.core.Cover(p, top)
	off := len(st.readLevels)
	for l := 0; l <= top; l++ {
		st.readLevels = append(st.readLevels, levelPair{p.Preds[l], p.Succs[l]})
	}
	st.reads = append(st.reads, skipRead{kind: skipLevels, curr: curr, off: int32(off), topLevel: int32(top)})
}

// savePreds copies levels 0..top of p's predecessors into the write arena
// and returns their offset.
func (st *skipState) savePreds(top int, p *conc.Path) int32 {
	off := len(st.writePreds)
	st.writePreds = append(st.writePreds, p.Preds[:top+1]...)
	return int32(off)
}

// begin opens one operation on key: it attaches the list to tx and returns
// the transaction's semantic read/write sets for it.
func (s *skipList) begin(tx *Tx, key int64) *skipState {
	checkKey(key)
	tx.tr.Op(TraceKey(key))
	return s.state(tx)
}

func (s *skipList) state(tx *Tx) *skipState { return tx.Attach(&s.slot).(*skipState) }

// locate runs the unmonitored probabilistic traversal for key, waits out a
// found node another commit is still linking (as in the lazy skip list) and
// reads the outcome: key's tower and value, or nil when absent. p holds the
// traversal. The op records its entries from them and only then
// post-validates, so that validation proves the outcome and every other
// entry held at one instant.
//
// An absent outcome rests on the bottom-level pair preds[0] → succs[0],
// which proves absence only if succs[0] does not hold key. It does when the
// traversal found key's node marked higher up: at the bottom it reached
// either that node, and the entry can only fail, or one a later commit
// inserted for key, and the entry would pass with key present. Both abort
// here.
func (s *skipList) locate(tx *Tx, st *skipState, key int64, p *conc.Path) (curr *mem.Tower, val uint64) {
	start := s.commits.load()
	if found := s.core.Find(key, p); found != -1 {
		n := p.Succs[found]
		var b spin.Backoff
		for !n.Linked() {
			b.Wait()
		}
		if !n.Marked() {
			curr, val = n, n.Val.Load()
		} else if p.Succs[0].Key == key {
			tx.tr.NoteKey(TraceKey(key))
			abort.Retry(abort.Conflict)
		}
	}
	st.view.traversed(start, len(st.reads) > 0)
	return curr, val
}

// readPresent records that key's node curr was seen present holding v.
func (s *skipList) readPresent(st *skipState, curr *mem.Tower, v uint64, p *conc.Path) {
	if s.fullValidation {
		st.guard(curr, curr.Top(), p)
	} else {
		st.reads = append(st.reads, skipRead{kind: skipPresent, curr: curr, val: v})
	}
}

// readAbsent records that the key was seen absent between p's level-0
// predecessor and successor.
func (st *skipState) readAbsent(p *conc.Path) {
	st.guard(nil, 0, p)
}

// insert defers linking a new node for an absent key. The tower height is
// drawn now, so the read entry guards exactly the levels the commit links.
func (st *skipState) insert(val uint64, p *conc.Path) {
	top := conc.RandomLevel()
	st.guard(nil, top, p)
	st.writes = append(st.writes, skipWrite{
		kind: skipInsert, key: p.Key, val: val, topLevel: int32(top), off: st.savePreds(top, p),
	})
}

// remove records the read guarding every level of present node curr and
// returns the write entry that unlinks it.
func (st *skipState) remove(curr *mem.Tower, p *conc.Path) skipWrite {
	top := curr.Top()
	st.guard(curr, top, p)
	return skipWrite{
		kind: skipDelete, key: curr.Key, topLevel: int32(top), victim: curr, off: st.savePreds(top, p),
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

	// Step 1: local write-set check.
	if i := st.findWrite(key); i >= 0 {
		ok, drop := eliminate(st.writes[i].kind == skipInsert, kind)
		if drop {
			st.deleteWrite(i)
		}
		return ok
	}

	// Step 2: unmonitored traversal.
	var p conc.Path
	curr, val := s.locate(tx, st, key, &p)

	// Step 3: outcome and semantic entries.
	var ok bool
	switch {
	case curr != nil && kind == opRemove:
		st.writes = append(st.writes, st.remove(curr, &p))
		ok = true
	case curr != nil:
		s.readPresent(st, curr, val, &p)
		ok = kind == opContains
	case kind == opAdd:
		st.insert(0, &p)
		ok = true
	default:
		st.readAbsent(&p)
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

// check re-evaluates entry e's semantic condition using the paper's
// level-aware rules.
func (st *skipState) check(e *skipRead) bool {
	if e.kind == skipPresent {
		return !e.curr.Marked() && e.curr.Val.Load() == e.val
	}
	for l, lv := range st.levelsOf(e) {
		if lv.pred.Marked() || lv.succ.Marked() || lv.pred.Next(l).Load() != lv.succ {
			return false
		}
	}
	return true
}

// ValidateWithLocks is Algorithm 2 (LockSet.Validate) over the towers whose
// locks guard each entry: its node for a skipPresent entry, pred and succ on
// every guarded level otherwise.
func (st *skipState) ValidateWithLocks(tx *Tx) bool {
	for i := range st.reads {
		e := &st.reads[i]
		if e.kind == skipPresent {
			st.Guard(&e.curr.Word, TraceKey(e.curr.Key))
			continue
		}
		for _, lv := range st.levelsOf(e) {
			st.Guard(&lv.pred.Word, TraceKey(lv.pred.Key))
			st.Guard(&lv.succ.Word, TraceKey(lv.succ.Key))
		}
	}
	return st.Validate(tx, st)
}

// ValidateWithoutLocks re-checks only the semantic conditions.
func (st *skipState) ValidateWithoutLocks(tx *Tx) bool {
	st.view.checks += len(st.reads)
	for i := range st.reads {
		if e := &st.reads[i]; !st.check(e) {
			tx.tr.ValidateFail(TraceKey(st.traceNode(e).Key))
			return false
		}
	}
	return true
}

// traceNode names read entry e for conflict attribution: the key's own node
// when the read saw it present, otherwise the bottom-level successor
// bounding the searched range (curr is nil for absent reads).
func (st *skipState) traceNode(e *skipRead) *mem.Tower {
	if e.curr != nil {
		return e.curr
	}
	return st.readLevels[e.off].succ
}

// PreCommit announces the commit on the list's counter, then locks the
// predecessor towers of every insert and delete (all levels), the victims of
// deletes, and the target nodes of updates.
func (st *skipState) PreCommit(tx *Tx) {
	if len(st.writes) == 0 {
		return
	}
	st.list.commits.announce(&st.view)
	for i := range st.writes {
		w := &st.writes[i]
		if w.kind != skipUpdate {
			for _, n := range st.predsOf(w) {
				st.Target(&n.Word, TraceKey(n.Key))
			}
		}
		if w.kind != skipInsert {
			st.Target(&w.victim.Word, TraceKey(w.victim.Key))
		}
	}
	st.Lock(tx, false)
}

// OnCommit publishes the write set in descending key order (through a
// sorted index of keys and positions), re-traversing each level from the
// saved predecessor so that this transaction's earlier publications are
// observed (each level independently, as the paper notes); updates store
// their value in place. An insert raises the live height before it links.
func (st *skipState) OnCommit(tx *Tx) {
	if len(st.writes) == 0 {
		return
	}
	s := st.list
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
			w.victim.Val.Store(w.val)
		case skipInsert:
			n := mem.NewTower(w.key, int(w.topLevel))
			n.Val.Store(w.val)
			st.LockNew(&n.Word, TraceKey(n.Key))
			s.core.Raise(int(w.topLevel))
			// Link bottom-up: once a reader can reach n at some level, all
			// lower next pointers are already set.
			for l, pred := range st.predsOf(w) {
				pred, succ := conc.Advance(pred, w.key, l)
				n.Next(l).Store(succ)
				pred.Next(l).Store(n)
			}
			n.SetLinked()
		default: // skipDelete
			w.victim.Word.Mark()
			preds := st.predsOf(w)
			for l := len(preds) - 1; l >= 0; l-- {
				pred, _ := conc.Advance(preds[l], w.key, l)
				pred.Next(l).Store(w.victim.Next(l).Load())
			}
			// Fully unlinked; recycle once concurrent traversals unpin.
			tx.retire(w.victim, mem.FreeTower)
		}
	}
	s.commits.settle(&st.view)
}

// PostCommit releases the locks, advancing their versions.
func (st *skipState) PostCommit(tx *Tx) { st.Unlock(tx) }

// OnAbort releases the locks unchanged and settles the counter.
func (st *skipState) OnAbort(tx *Tx) {
	st.UnlockUnchanged()
	st.list.commits.settle(&st.view)
}

// Dirty reports whether the transaction has pending writes on this list.
func (st *skipState) Dirty(tx *Tx) bool { return len(st.writes) > 0 }

// walk is the core's Walk pinned by an epoch guard, so that concurrent
// removals cannot recycle towers out from under it.
func (s *skipList) walk(visit func(*mem.Tower) bool) {
	g := epoch.Default.Enter()
	defer g.Exit()
	s.core.Walk(visit)
}

// Len counts the present elements (not linearizable; tests and reporting).
func (s *skipList) Len() int {
	n := 0
	s.walk(func(*mem.Tower) bool { n++; return true })
	return n
}

// Min returns the smallest present key in the shared structure, outside
// any transaction.
func (s *SkipSet) Min() (key int64, ok bool) {
	s.walk(func(n *mem.Tower) bool { key, ok = n.Key, true; return false })
	return key, ok
}

// Keys returns the present keys in ascending order (tests and snapshots).
func (s *SkipSet) Keys() []int64 {
	var out []int64
	s.walk(func(n *mem.Tower) bool { out = append(out, n.Key); return true })
	return out
}

var _ Datastructure = (*skipState)(nil)
