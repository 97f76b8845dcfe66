package conc

import (
	"math"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/mem/epoch"
)

// listNode is one element of a LazyList. Deletion is split into a logical
// phase (setting marked) and a physical phase (unlinking), so wait-free
// readers can skip over logically deleted nodes. Nodes come from the list's
// slab, which places each insert next to its predecessor in memory; unlinked
// nodes return to it through epoch-based reclamation, so the steady-state
// add/remove path does not allocate. The node is 16 bytes, what a traversal
// reads; its lock and mark are one mem.Word in the slab page's header (the
// lock is a spin lock, held only across a validation and two stores).
type listNode struct {
	key  int64
	next atomic.Pointer[listNode]
}

// word returns the node's lock-and-mark word.
func (n *listNode) word() *mem.Word { return mem.WordOf(n) }

// marked reports whether the node is logically deleted.
func (n *listNode) marked() bool { return mem.IsMarked(n.word().Load()) }

// lockPair locks pred, then curr (key order, so lockers cannot deadlock).
func lockPair(pred, curr *listNode) {
	pred.word().Lock()
	curr.word().Lock()
}

// unlockPair releases lockPair's locks.
func unlockPair(pred, curr *listNode) {
	curr.word().Unlock()
	pred.word().Unlock()
}

// newNode allocates a node for key in front of succ, next to pred (else succ)
// in memory. A recycled node is unreachable by the time it is reused (two
// epoch advances have passed), so no traversal can observe the resets.
func (l *LazyList) newNode(key int64, pred, succ *listNode) *listNode {
	n := l.nodes.Alloc(pred, succ)
	n.key = key
	n.word().Reuse()
	n.next.Store(succ)
	return n
}

// LazyList is the lazy linked-list set of Heller et al. [OPODIS 2005]:
// unmonitored traversal, per-node locking with post-lock validation, and a
// wait-free Contains. Keys range over int64 exclusive of the sentinels
// (math.MinInt64, math.MaxInt64). Every operation pins an epoch guard so
// that unlinked nodes can be recycled instead of left to the garbage
// collector.
type LazyList struct {
	head  *listNode
	nodes *mem.Slab[listNode]
}

// NewLazyList creates an empty set.
func NewLazyList() *LazyList {
	l := &LazyList{nodes: mem.NewSlab[listNode]()}
	tail := l.newNode(math.MaxInt64, nil, nil)
	l.head = l.newNode(math.MinInt64, nil, tail)
	return l
}

// locate returns the adjacent pair (pred, curr) with
// pred.key < key <= curr.key.
func (l *LazyList) locate(key int64) (pred, curr *listNode) {
	pred = l.head
	curr = pred.next.Load()
	for curr.key < key {
		pred = curr
		curr = curr.next.Load()
	}
	return pred, curr
}

// validate checks, with locks held, that pred and curr are unmarked and
// still adjacent.
func validate(pred, curr *listNode) bool {
	return !pred.marked() && !curr.marked() && pred.next.Load() == curr
}

// Add inserts key, returning false if it was already present.
func (l *LazyList) Add(key int64) bool {
	g := epoch.Default.Enter()
	defer g.Exit()
	for {
		pred, curr := l.locate(key)
		lockPair(pred, curr)
		if validate(pred, curr) {
			if curr.key == key {
				unlockPair(pred, curr)
				return false
			}
			pred.next.Store(l.newNode(key, pred, curr))
			unlockPair(pred, curr)
			return true
		}
		unlockPair(pred, curr)
	}
}

// Remove deletes key, returning false if it was absent. The unlinked node is
// retired under the epoch guard and its slot reused once no concurrent
// traversal can still reach it.
func (l *LazyList) Remove(key int64) bool {
	g := epoch.Default.Enter()
	defer g.Exit()
	for {
		pred, curr := l.locate(key)
		lockPair(pred, curr)
		if validate(pred, curr) {
			if curr.key != key {
				unlockPair(pred, curr)
				return false
			}
			curr.word().Mark() // logical deletion
			pred.next.Store(curr.next.Load())
			unlockPair(pred, curr)
			g.Retire(curr, l.nodes.Free)
			return true
		}
		unlockPair(pred, curr)
	}
}

// Contains reports whether key is present. It takes no locks: one traversal
// under an epoch pin and a final marked check.
func (l *LazyList) Contains(key int64) bool {
	g := epoch.Default.Enter()
	curr := l.head
	for curr.key < key {
		curr = curr.next.Load()
	}
	ok := curr.key == key && !curr.marked()
	g.Exit()
	return ok
}

// Len counts the unmarked elements (excluding sentinels). It is not
// linearizable and is intended for tests and reporting.
func (l *LazyList) Len() int {
	g := epoch.Default.Enter()
	defer g.Exit()
	n := 0
	for curr := l.head.next.Load(); curr.key != math.MaxInt64; curr = curr.next.Load() {
		if !curr.marked() {
			n++
		}
	}
	return n
}

// Keys returns the unmarked keys in ascending order (tests only).
func (l *LazyList) Keys() []int64 {
	g := epoch.Default.Enter()
	defer g.Exit()
	var out []int64
	for curr := l.head.next.Load(); curr.key != math.MaxInt64; curr = curr.next.Load() {
		if !curr.marked() {
			out = append(out, curr.key)
		}
	}
	return out
}
