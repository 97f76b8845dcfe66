package conc

import (
	"math"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/mem/epoch"
)

// ListNode is one element of a linked list built on ListCore. It is the 16
// bytes a traversal reads, so eight share one 128-byte slab block; the
// node's lock, mark and version are one mem.Word in its slab page's header,
// and its slab slot is a stable identity (the OTB list's lock order).
// Unlink deletes in two steps, the mark (logical) and then the unlink
// (physical), so an unmonitored traversal that still reaches a deleted
// node sees it marked.
type ListNode struct {
	Key  int64
	next atomic.Pointer[ListNode]
}

// Next returns the node's successor.
func (n *ListNode) Next() *ListNode { return n.next.Load() }

// Word returns the node's lock-and-mark word.
func (n *ListNode) Word() *mem.Word { return mem.WordOf(n) }

// Marked reports whether the node is logically deleted.
func (n *ListNode) Marked() bool { return mem.IsMarked(n.Word().Load()) }

// Slot returns the node's slab slot.
func (n *ListNode) Slot() uint32 { return mem.SlotOf(n) }

// Link publishes m, made by NewNode with n's successor, after n.
func (n *ListNode) Link(m *ListNode) { n.next.Store(m) }

// Unlink marks m, n's successor, deleted and unlinks it. The caller retires
// m to the slab once no traversal can reach it.
func (n *ListNode) Unlink(m *ListNode) {
	m.Word().Mark()
	n.next.Store(m.next.Load())
}

// ListCore is the one linked-list core, which this package's LazyList and
// the OTB list set both build on: the node type, the sentinels, allocation
// from a slab, the one search and the walk. Each list keeps its own locking,
// validation and commit on top, so the two differ in their algorithms and
// in nothing else. Keys range over int64 exclusive of the sentinels
// (math.MinInt64, math.MaxInt64).
//
// Nodes come from the slab the core is given, which places each insert next
// to its predecessor in memory; unlinked nodes return to it only through
// epoch reclamation (Nodes.Free is the Retire callback), so a slot is never
// reused while a pinned traversal could still reach its old node.
type ListCore struct {
	Head  *ListNode
	Nodes *mem.Slab[ListNode]
}

// Init makes c an empty list drawing its nodes from nodes, which lists may
// share.
func (c *ListCore) Init(nodes *mem.Slab[ListNode]) {
	c.Nodes = nodes
	tail := c.NewNode(math.MaxInt64, nil, nil)
	c.Head = c.NewNode(math.MinInt64, nil, tail)
}

// NewNode allocates a node for key in front of succ, next to pred (else
// succ) in memory. A reused slot keeps its lock version (monotone, so a
// validation holding a sample of the node's previous life fails instead of
// passing); key, next and the mark are reset. A recycled node is
// unreachable by the time it is reused, so no traversal observes the
// resets.
func (c *ListCore) NewNode(key int64, pred, succ *ListNode) *ListNode {
	n := c.Nodes.Alloc(pred, succ)
	n.Key = key
	n.Word().Reuse()
	n.next.Store(succ)
	return n
}

// Advance walks from pred, which must precede key, and returns the adjacent
// pair (pred, curr) with pred.Key < key <= curr.Key.
func (*ListCore) Advance(pred *ListNode, key int64) (*ListNode, *ListNode) {
	curr := pred.next.Load()
	for curr.Key < key {
		pred = curr
		curr = curr.next.Load()
	}
	return pred, curr
}

// Walk calls visit on each unmarked node in ascending key order until visit
// returns false. It pins an epoch guard, so concurrent removals cannot
// recycle nodes out from under it. Not linearizable (tests and reporting).
func (c *ListCore) Walk(visit func(*ListNode) bool) {
	g := epoch.Default.Enter()
	defer g.Exit()
	for curr := c.Head.Next(); curr.Key != math.MaxInt64; curr = curr.Next() {
		if !curr.Marked() && !visit(curr) {
			return
		}
	}
}

// Len counts the unmarked elements (not linearizable; tests and reporting).
func (c *ListCore) Len() int {
	n := 0
	c.Walk(func(*ListNode) bool { n++; return true })
	return n
}

// Keys returns the unmarked keys in ascending order (tests only).
func (c *ListCore) Keys() []int64 {
	var out []int64
	c.Walk(func(n *ListNode) bool { out = append(out, n.Key); return true })
	return out
}

// LazyList is the lazy linked-list set of Heller et al. [OPODIS 2005] on
// ListCore: unmonitored traversal, per-node locking with post-lock
// validation, and a wait-free Contains. The per-node lock is a spin lock in
// the node's word, held only across a validation and two stores. Every
// operation pins an epoch guard so that unlinked nodes can be recycled
// instead of left to the garbage collector.
type LazyList struct{ core ListCore }

// NewLazyList creates an empty set.
func NewLazyList() *LazyList {
	l := &LazyList{}
	l.core.Init(mem.NewSlab[ListNode]())
	return l
}

// lockPair locks pred, then curr (key order, so lockers cannot deadlock).
func lockPair(pred, curr *ListNode) {
	pred.Word().Lock()
	curr.Word().Lock()
}

// unlockPair releases lockPair's locks.
func unlockPair(pred, curr *ListNode) {
	curr.Word().Unlock()
	pred.Word().Unlock()
}

// validate checks, with locks held, that pred and curr are unmarked and
// still adjacent.
func validate(pred, curr *ListNode) bool {
	return !pred.Marked() && !curr.Marked() && pred.Next() == curr
}

// Add inserts key, returning false if it was already present.
func (l *LazyList) Add(key int64) bool {
	g := epoch.Default.Enter()
	defer g.Exit()
	for {
		pred, curr := l.core.Advance(l.core.Head, key)
		lockPair(pred, curr)
		if validate(pred, curr) {
			if curr.Key == key {
				unlockPair(pred, curr)
				return false
			}
			pred.Link(l.core.NewNode(key, pred, curr))
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
		pred, curr := l.core.Advance(l.core.Head, key)
		lockPair(pred, curr)
		if validate(pred, curr) {
			if curr.Key != key {
				unlockPair(pred, curr)
				return false
			}
			pred.Unlink(curr) // logical, then physical deletion
			unlockPair(pred, curr)
			g.Retire(curr, l.core.Nodes.Free)
			return true
		}
		unlockPair(pred, curr)
	}
}

// Contains reports whether key is present. It takes no locks: one
// pred-free traversal under an epoch pin and a final marked check.
func (l *LazyList) Contains(key int64) bool {
	g := epoch.Default.Enter()
	curr := l.core.Head
	for curr.Key < key {
		curr = curr.Next()
	}
	ok := curr.Key == key && !curr.Marked()
	g.Exit()
	return ok
}

// Len counts the unmarked elements (excluding sentinels). It is not
// linearizable and is intended for tests and reporting.
func (l *LazyList) Len() int { return l.core.Len() }

// Keys returns the unmarked keys in ascending order (tests only).
func (l *LazyList) Keys() []int64 { return l.core.Keys() }
