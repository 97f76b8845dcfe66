package conc

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/spin"
)

// MaxLevel is the number of skip-list levels (supports ~4^20 elements with
// p = 1/4 towers).
const MaxLevel = mem.TowerLevels

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

// SkipCore is the one skip-list core, which this package's LazySkipList and
// the OTB skip list both build on: towers from mem.NewTower, a head with
// every level, the published live height and the one search. Each list
// keeps its own locking and validation on top, so the two differ in their
// algorithms and in nothing else.
//
// The live height is the number of levels a search starts from. It rises
// (Raise) before a taller tower is linked and never falls, so every linked
// tower lies below it, and a search that read it meets every tower but one
// linked since. A search that read a stale height and needs the levels above
// it, for a tower it is about to link or unlink, searches them from the head
// (Cover).
type SkipCore struct {
	Head   *mem.Tower
	height atomic.Int32
}

// Path is one search for Key: its per-level predecessors and successors on
// levels 0..Levels-1.
type Path struct {
	Key          int64
	Preds, Succs [MaxLevel]*mem.Tower
	Levels       int
}

// Init makes c an empty list bounded by the int64 sentinels, one level high.
func (c *SkipCore) Init() {
	tail := mem.NewTower(math.MaxInt64, 0)
	tail.SetLinked()
	head := mem.NewTower(math.MinInt64, MaxLevel-1)
	for l := range MaxLevel {
		head.Next(l).Store(tail)
	}
	head.SetLinked()
	c.Head = head
	c.height.Store(1)
}

// Find searches for key from the live height down, filling p, and returns
// the highest level at which it met key, or -1.
func (c *SkipCore) Find(key int64, p *Path) int {
	found := -1
	p.Key, p.Levels = key, int(c.height.Load())
	pred := c.Head
	for l := p.Levels - 1; l >= 0; l-- {
		var curr *mem.Tower
		pred, curr = Advance(pred, key, l)
		if found == -1 && curr.Key == key {
			found = l
		}
		p.Preds[l], p.Succs[l] = pred, curr
	}
	return found
}

// Advance walks level l from pred, which must precede key, and returns
// key's predecessor and successor on that level.
func Advance(pred *mem.Tower, key int64, l int) (*mem.Tower, *mem.Tower) {
	curr := pred.Next(l).Load()
	for curr.Key < key {
		pred = curr
		curr = pred.Next(l).Load()
	}
	return pred, curr
}

// Cover extends p to levels 0..top. Each level above the search is
// searched from the head: only towers linked since the search can be there.
func (c *SkipCore) Cover(p *Path, top int) {
	for l := p.Levels; l <= top; l++ {
		p.Preds[l], p.Succs[l] = Advance(c.Head, p.Key, l)
	}
	p.Levels = max(p.Levels, top+1)
}

// Height returns the live height.
func (c *SkipCore) Height() int { return int(c.height.Load()) }

// Raise publishes a live height that covers a tower with levels 0..top. It
// must run before the tower's first link.
func (c *SkipCore) Raise(top int) {
	for {
		h := c.height.Load()
		if int(h) > top || c.height.CompareAndSwap(h, int32(top+1)) {
			return
		}
	}
}

// Walk calls visit on each fully linked, unmarked tower in ascending key
// order until visit returns false. Not linearizable (tests and reporting).
func (c *SkipCore) Walk(visit func(*mem.Tower) bool) {
	for curr := c.Head.Next(0).Load(); curr.Key != math.MaxInt64; curr = curr.Next(0).Load() {
		if curr.Linked() && !curr.Marked() && !visit(curr) {
			return
		}
	}
}

// LazySkipList is the lazy (optimistic) skip-list set of Herlihy, Lev,
// Luchangco & Shavit: unmonitored probabilistic search, per-node locking of
// the predecessor towers with post-lock validation, and a wait-free
// Contains. Its removed towers go to the garbage collector.
type LazySkipList struct{ core SkipCore }

// NewLazySkipList creates an empty set.
func NewLazySkipList() *LazySkipList {
	s := &LazySkipList{}
	s.core.Init()
	return s
}

// Add inserts key, returning false if it was already present.
func (s *LazySkipList) Add(key int64) bool {
	topLevel := RandomLevel()
	var p Path
	var b spin.Backoff
	for {
		if found := s.core.Find(key, &p); found != -1 {
			n := p.Succs[found]
			if !n.Marked() {
				for !n.Linked() {
					b.Wait()
				}
				return false
			}
			b.Wait() // marked victim still linked: retry
			continue
		}
		s.core.Cover(&p, topLevel)
		highest, prevPred, valid := -1, (*mem.Tower)(nil), true
		for level := 0; valid && level <= topLevel; level++ {
			pred, succ := p.Preds[level], p.Succs[level]
			if pred != prevPred {
				pred.Word.Lock()
				highest = level
				prevPred = pred
			}
			valid = !pred.Marked() && !succ.Marked() && pred.Next(level).Load() == succ
		}
		if !valid {
			unlockPreds(&p, highest)
			b.Wait()
			continue
		}
		n := mem.NewTower(key, topLevel)
		for level := 0; level <= topLevel; level++ {
			n.Next(level).Store(p.Succs[level])
		}
		s.core.Raise(topLevel)
		for level := 0; level <= topLevel; level++ {
			p.Preds[level].Next(level).Store(n)
		}
		n.SetLinked()
		unlockPreds(&p, highest)
		return true
	}
}

// Remove deletes key, returning false if it was absent.
func (s *LazySkipList) Remove(key int64) bool {
	var p Path
	var victim *mem.Tower
	isMarked := false
	topLevel := -1
	var b spin.Backoff
	for {
		found := s.core.Find(key, &p)
		if found != -1 {
			victim = p.Succs[found]
		}
		if !isMarked {
			if found == -1 || !victim.Linked() || victim.Marked() {
				return false
			}
			topLevel = victim.Top()
			if s.core.Cover(&p, topLevel); p.Succs[topLevel] != victim {
				return false
			}
			victim.Word.Lock()
			if victim.Marked() {
				victim.Word.Unlock()
				return false
			}
			victim.Word.Mark()
			isMarked = true
		}
		s.core.Cover(&p, topLevel)
		highest, prevPred, valid := -1, (*mem.Tower)(nil), true
		for level := 0; valid && level <= topLevel; level++ {
			pred := p.Preds[level]
			if pred != prevPred {
				pred.Word.Lock()
				highest = level
				prevPred = pred
			}
			valid = !pred.Marked() && pred.Next(level).Load() == victim
		}
		if !valid {
			unlockPreds(&p, highest)
			b.Wait()
			continue
		}
		for level := topLevel; level >= 0; level-- {
			p.Preds[level].Next(level).Store(victim.Next(level).Load())
		}
		victim.Word.Unlock()
		unlockPreds(&p, highest)
		return true
	}
}

// unlockPreds releases the distinct predecessor locks up to level highest.
func unlockPreds(p *Path, highest int) {
	var prev *mem.Tower
	for level := 0; level <= highest; level++ {
		if p.Preds[level] != prev {
			p.Preds[level].Word.Unlock()
			prev = p.Preds[level]
		}
	}
}

// Contains reports whether key is present. It is wait-free.
func (s *LazySkipList) Contains(key int64) bool {
	var p Path
	found := s.core.Find(key, &p)
	return found != -1 && p.Succs[found].Linked() && !p.Succs[found].Marked()
}

// Min returns the smallest key in the set, or false if empty. It is the
// building block of the skip-list priority queue.
func (s *LazySkipList) Min() (key int64, ok bool) {
	s.core.Walk(func(t *mem.Tower) bool { key, ok = t.Key, true; return false })
	return key, ok
}

// Len counts the present elements (tests and reporting only).
func (s *LazySkipList) Len() int {
	n := 0
	s.core.Walk(func(*mem.Tower) bool { n++; return true })
	return n
}

// Keys returns the present keys in ascending order (tests only).
func (s *LazySkipList) Keys() []int64 {
	var out []int64
	s.core.Walk(func(t *mem.Tower) bool { out = append(out, t.Key); return true })
	return out
}
