package conc

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"repro/internal/spin"
)

// MaxLevel is the number of skip-list levels (supports ~4^20 elements with
// p = 1/4 towers).
const MaxLevel = 20

// skipNode is one tower of a LazySkipList. A node is logically in the set
// once fullyLinked is true and marked is false.
type skipNode struct {
	key         int64
	next        [MaxLevel]atomic.Pointer[skipNode]
	topLevel    int
	marked      atomic.Bool
	fullyLinked atomic.Bool
	mu          sync.Mutex
}

// LazySkipList is the lazy (optimistic) skip-list set of Herlihy, Lev,
// Luchangco & Shavit: unmonitored probabilistic search, per-node locking of
// the predecessor towers with post-lock validation, and a wait-free
// Contains.
type LazySkipList struct {
	head *skipNode
}

// NewLazySkipList creates an empty set.
func NewLazySkipList() *LazySkipList {
	tail := &skipNode{key: math.MaxInt64, topLevel: MaxLevel - 1}
	tail.fullyLinked.Store(true)
	head := &skipNode{key: math.MinInt64, topLevel: MaxLevel - 1}
	for i := range head.next {
		head.next[i].Store(tail)
	}
	head.fullyLinked.Store(true)
	return &LazySkipList{head: head}
}

// RandomLevel draws a skip-list tower's top level with geometric
// distribution p = 1/4: level k is reached with probability 4^-k, so a tower
// holds 4/3 levels on average (2 at p = 1/2) and searches stay logarithmic.
// Both this lazy skip list and the OTB skip list draw from it, so the
// boosted and optimistically boosted structures share one geometry. Two
// random bits per level come from a single draw: a run of 2k trailing zero
// bits has probability 4^-k.
func RandomLevel() int {
	return min(bits.TrailingZeros64(rand.Uint64())/2, MaxLevel-1)
}

// find fills preds/succs with the per-level neighbours of key and returns
// the highest level at which key was found, or -1.
func (s *LazySkipList) find(key int64, preds, succs *[MaxLevel]*skipNode) int {
	found := -1
	pred := s.head
	for level := MaxLevel - 1; level >= 0; level-- {
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

// Add inserts key, returning false if it was already present.
func (s *LazySkipList) Add(key int64) bool {
	topLevel := RandomLevel()
	var preds, succs [MaxLevel]*skipNode
	var b spin.Backoff
	for {
		if found := s.find(key, &preds, &succs); found != -1 {
			n := succs[found]
			if !n.marked.Load() {
				for !n.fullyLinked.Load() {
					b.Wait()
				}
				return false
			}
			b.Wait() // marked victim still linked: retry
			continue
		}
		highest, prevPred, valid := -1, (*skipNode)(nil), true
		for level := 0; valid && level <= topLevel; level++ {
			pred, succ := preds[level], succs[level]
			if pred != prevPred {
				pred.mu.Lock()
				highest = level
				prevPred = pred
			}
			valid = !pred.marked.Load() && !succ.marked.Load() &&
				pred.next[level].Load() == succ
		}
		if !valid {
			unlockPreds(&preds, highest)
			b.Wait()
			continue
		}
		n := &skipNode{key: key, topLevel: topLevel}
		for level := 0; level <= topLevel; level++ {
			n.next[level].Store(succs[level])
		}
		for level := 0; level <= topLevel; level++ {
			preds[level].next[level].Store(n)
		}
		n.fullyLinked.Store(true)
		unlockPreds(&preds, highest)
		return true
	}
}

// Remove deletes key, returning false if it was absent.
func (s *LazySkipList) Remove(key int64) bool {
	var preds, succs [MaxLevel]*skipNode
	var victim *skipNode
	isMarked := false
	topLevel := -1
	var b spin.Backoff
	for {
		found := s.find(key, &preds, &succs)
		if found != -1 {
			victim = succs[found]
		}
		if !isMarked {
			if found == -1 || !victim.fullyLinked.Load() ||
				victim.marked.Load() || victim.topLevel != found {
				return false
			}
			topLevel = victim.topLevel
			victim.mu.Lock()
			if victim.marked.Load() {
				victim.mu.Unlock()
				return false
			}
			victim.marked.Store(true)
			isMarked = true
		}
		highest, prevPred, valid := -1, (*skipNode)(nil), true
		for level := 0; valid && level <= topLevel; level++ {
			pred := preds[level]
			if pred != prevPred {
				pred.mu.Lock()
				highest = level
				prevPred = pred
			}
			valid = !pred.marked.Load() && pred.next[level].Load() == victim
		}
		if !valid {
			unlockPreds(&preds, highest)
			b.Wait()
			continue
		}
		for level := topLevel; level >= 0; level-- {
			preds[level].next[level].Store(victim.next[level].Load())
		}
		victim.mu.Unlock()
		unlockPreds(&preds, highest)
		return true
	}
}

// unlockPreds releases the distinct predecessor locks up to level highest.
func unlockPreds(preds *[MaxLevel]*skipNode, highest int) {
	var prev *skipNode
	for level := 0; level <= highest; level++ {
		if preds[level] != prev {
			preds[level].mu.Unlock()
			prev = preds[level]
		}
	}
}

// Contains reports whether key is present. It is wait-free.
func (s *LazySkipList) Contains(key int64) bool {
	var preds, succs [MaxLevel]*skipNode
	found := s.find(key, &preds, &succs)
	return found != -1 &&
		succs[found].fullyLinked.Load() && !succs[found].marked.Load()
}

// Min returns the smallest key in the set, or false if empty. It is the
// building block of the skip-list priority queue.
func (s *LazySkipList) Min() (int64, bool) {
	for curr := s.head.next[0].Load(); curr.key != math.MaxInt64; curr = curr.next[0].Load() {
		if curr.fullyLinked.Load() && !curr.marked.Load() {
			return curr.key, true
		}
	}
	return 0, false
}

// Len counts the present elements (tests and reporting only).
func (s *LazySkipList) Len() int {
	n := 0
	for curr := s.head.next[0].Load(); curr.key != math.MaxInt64; curr = curr.next[0].Load() {
		if curr.fullyLinked.Load() && !curr.marked.Load() {
			n++
		}
	}
	return n
}

// Keys returns the present keys in ascending order (tests only).
func (s *LazySkipList) Keys() []int64 {
	var out []int64
	for curr := s.head.next[0].Load(); curr.key != math.MaxInt64; curr = curr.next[0].Load() {
		if curr.fullyLinked.Load() && !curr.marked.Load() {
			out = append(out, curr.key)
		}
	}
	return out
}
