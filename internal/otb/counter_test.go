package otb

import (
	"sync"
	"testing"

	"repro/internal/abort"
	"repro/internal/chaos"
)

// Tests of the skip list's commit counter: what the validation it skips
// must still catch, and the work it saves.

// keyed is the part of SkipSet and Map these tests drive.
type keyed interface {
	has(tx *Tx, k int64) bool
	add(tx *Tx, k int64)
}

type keyedSet struct{ *SkipSet }

func (s keyedSet) has(tx *Tx, k int64) bool { return s.Contains(tx, k) }
func (s keyedSet) add(tx *Tx, k int64)      { s.Add(tx, k) }

type keyedMap struct{ *Map }

func (m keyedMap) has(tx *Tx, k int64) bool { return m.ContainsKey(tx, k) }
func (m keyedMap) add(tx *Tx, k int64)      { m.Put(tx, k, uint64(k)) }

var keyedKinds = []struct {
	name string
	mk   func() keyed
}{
	{"skipset", func() keyed { return keyedSet{NewSkipSet()} }},
	{"map", func() keyed { return keyedMap{NewMap()} }},
}

// TestStaleViewAborts: a transaction reads key 1 as absent and pauses;
// another commits {add 1, add 2}; the first then reads key 2 and finds it.
// The commit moved the list's counter, so that read's post-validation must
// re-check the entry for 1 and abort: (1 absent, 2 present) is a state the
// list never held.
func TestStaleViewAborts(t *testing.T) {
	for _, kind := range keyedKinds {
		t.Run(kind.name, func(t *testing.T) {
			s := kind.mk()
			attempts := 0
			Atomic(nil, func(tx *Tx) {
				attempts++
				has1 := s.has(tx, 1)
				if attempts > 1 {
					return
				}
				chaos.CommitConcurrently(func() {
					Atomic(nil, func(tx2 *Tx) { s.add(tx2, 1); s.add(tx2, 2) })
				})
				has2 := s.has(tx, 2)
				t.Errorf("attempt 1 observed 1 present=%v, 2 present=%v; it should have aborted", has1, has2)
			})
			if attempts != 2 {
				t.Fatalf("attempts = %d, want 2", attempts)
			}
		})
	}
}

// TestOpOutcomeHoldsWithEntries: an op's outcome must hold at one instant
// with the transaction's entries, even when a commit during its
// post-validation restores an entry a commit before its traversal broke.
// The set holds {1, 4, 5}. A reads 3 as absent (an entry on 1 → 4). C1
// adds 3 and removes 5; A's next op traverses for 5 and finds it absent;
// during its post-validation C2 removes 3 and adds 5 back. The entry on
// 1 → 4 validates again, but 3 and 5 were never absent together: the op
// must traverse again and find 5.
func TestOpOutcomeHoldsWithEntries(t *testing.T) {
	s := NewSkipSet()
	run(t, func(tx *Tx) { s.Add(tx, 1); s.Add(tx, 4); s.Add(tx, 5) })
	a := NewTx(nil)
	a.Pin()
	defer a.Unpin()
	during := func() {}
	a.SetValidator(func(tx *Tx) {
		during()
		if !tx.ValidateAllWithLocks() {
			abort.Retry(abort.Conflict)
		}
	})
	if s.Contains(a, 3) {
		t.Fatal("A: key 3 present before anyone added it")
	}
	run(t, func(tx *Tx) { s.Add(tx, 3); s.Remove(tx, 5) })
	during = func() {
		during = func() {}
		chaos.CommitConcurrently(func() {
			Atomic(nil, func(tx *Tx) { s.Remove(tx, 3); s.Add(tx, 5) })
		})
	}
	if !s.Contains(a, 5) {
		a.Rollback()
		t.Fatal("A observed 3 and 5 both absent, a state the set never held")
	}
	a.Commit()
}

// gate is a structure with no state of its own that stops a committing
// transaction until released: in its ValidateWithLocks or, with onCommit,
// in its OnCommit. Attached after a transaction's last operation, the
// first stops the commit once every list has validated, with the semantic
// locks held and nothing published. Attached between two lists, the second
// stops it half published.
type gate struct {
	onCommit         bool
	reached, release chan struct{}
}

func newGate(onCommit bool) *gate {
	return &gate{onCommit: onCommit, reached: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) stop() { close(g.reached); <-g.release }

func (g *gate) PreCommit(*Tx) {}
func (g *gate) OnCommit(*Tx) {
	if g.onCommit {
		g.stop()
	}
}
func (g *gate) PostCommit(*Tx) {}
func (g *gate) OnAbort(*Tx)    {}
func (g *gate) ValidateWithLocks(*Tx) bool {
	if !g.onCommit {
		g.stop()
	}
	return true
}
func (g *gate) ValidateWithoutLocks(*Tx) bool { return true }
func (g *gate) Dirty(*Tx) bool                { return false }

// commitBehind runs fn and commits it in a transaction of its own, on
// another goroutine, with g attached where fn attaches it. It returns once
// the commit has reached g, and a func that releases it and waits for the
// commit to finish (safe to call twice; deferred calls cover a failing test).
func commitBehind(t *testing.T, g *gate, fn func(*Tx)) (finish func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		tx := NewTx(nil)
		tx.Pin()
		defer tx.Unpin()
		fn(tx)
		tx.Commit()
	}()
	<-g.reached
	finish = sync.OnceFunc(func() { close(g.release); <-done })
	t.Cleanup(finish)
	return finish
}

// TestHalfPublishedCommitAborts: C inserts 1 into a set and 2 into a map,
// and stops after publishing the set, before the map. A read 2 as absent
// before C began and now finds 1: it has seen half of C and must abort.
// Only the map's counter can tell it, and only because C moved every
// list's counter in PreCommit, before publishing in any of them.
func TestHalfPublishedCommitAborts(t *testing.T) {
	s, m := NewSkipSet(), NewMap()
	a := NewTx(nil)
	a.Pin()
	defer a.Unpin()
	if m.ContainsKey(a, 2) {
		t.Fatal("A: key 2 present before anyone added it")
	}
	g := newGate(true)
	finish := commitBehind(t, g, func(c *Tx) {
		s.Add(c, 1)
		c.Attach(g, func() any { return g })
		m.Put(c, 2, 2)
	})
	chaos.ExpectAbort(t, abort.Conflict, func() {
		has1 := s.Contains(a, 1)
		t.Errorf("A returned 1 present=%v with 2 absent; C was half published", has1)
	})
	a.Rollback()
	finish()
	run(t, func(tx *Tx) {
		if !s.Contains(tx, 1) || !m.ContainsKey(tx, 2) {
			t.Error("C's commit is incomplete")
		}
	})
}

// TestWriterCommitValidatesUnderLocks: a writer's commit validation runs in
// full under its locks. A reads key 1 as absent in x and updates 20 in y. B
// then reads 20, inserts 1 into x, validates and stops before publishing.
// Unless A's commit samples the lock B holds on 1's predecessor, both
// commit and each misses the other's write (write skew). Run over one list
// and over two, since the list A read may also be one it does not write.
func TestWriterCommitValidatesUnderLocks(t *testing.T) {
	for _, two := range []bool{false, true} {
		name := map[bool]string{false: "one list", true: "two lists"}[two]
		t.Run(name, func(t *testing.T) {
			x, y := NewMap(), NewMap()
			if !two {
				y = x
			}
			run(t, func(tx *Tx) { y.Put(tx, 20, 0) })

			a := NewTx(nil)
			a.Pin()
			defer a.Unpin()
			if x.ContainsKey(a, 1) {
				t.Fatal("A: key 1 present before anyone added it")
			}
			if y.Put(a, 20, 5) {
				t.Fatal("A: Put(20) inserted; the key should be present")
			}

			g := newGate(false)
			finishB := commitBehind(t, g, func(b *Tx) {
				if v, ok := y.Get(b, 20); !ok || v != 0 {
					t.Errorf("B: Get(20) = %d,%v; want 0,true", v, ok)
				}
				x.Put(b, 1, 1)
				b.Attach(g, func() any { return g })
			})
			chaos.ExpectAbort(t, abort.Conflict, a.Commit)
			a.Rollback()
			finishB()
			run(t, func(tx *Tx) {
				if v, _ := y.Get(tx, 20); v != 0 {
					t.Errorf("20 = %d after A aborted, want 0", v)
				}
				if !x.ContainsKey(tx, 1) {
					t.Error("B's insert of 1 is missing")
				}
			})
		})
	}
}

// TestReaderSeesValidatedWriter: a commit that has validated is ordered
// before any later commit that invalidates its reads, so a reader may not
// skip past it even before it publishes. C reads 60 in y (value 0),
// inserts 10 into x, validates and stops before publishing. D then updates
// 60 to 7 and commits. A reads 60 (7) and 10 (absent): committing A would
// order it after D and before C, while C precedes D. C announced on x's
// counter before taking its locks, so A cannot skip x and must abort.
func TestReaderSeesValidatedWriter(t *testing.T) {
	x, y := NewMap(), NewMap()
	run(t, func(tx *Tx) { y.Put(tx, 60, 0) })
	g := newGate(false)
	finishC := commitBehind(t, g, func(c *Tx) {
		if v, ok := y.Get(c, 60); !ok || v != 0 {
			t.Errorf("C: Get(60) = %d,%v; want 0,true", v, ok)
		}
		x.Put(c, 10, 1)
		c.Attach(g, func() any { return g })
	})
	run(t, func(tx *Tx) { y.Put(tx, 60, 7) })

	a := NewTx(nil)
	a.Pin()
	defer a.Unpin()
	chaos.ExpectAbort(t, abort.Conflict, func() {
		v, _ := y.Get(a, 60)
		has10 := x.ContainsKey(a, 10)
		a.Commit()
		t.Errorf("A committed 60=%d and 10 present=%v before C published", v, has10)
	})
	a.Rollback()
	finishC()
}

// TestSkipTxLinearWork counts the entries validation re-checks in one
// 1024-op transaction running alone. Post-validating every entry after
// every op re-checks k²/2 of them (over half a million); with the commit
// counter no post-validation of a list nothing was published in checks
// anything, a writer's commit checks each entry once and a write-free
// commit none.
func TestSkipTxLinearWork(t *testing.T) {
	const k = 1024
	m := NewMap()
	run(t, func(tx *Tx) {
		for i := int64(0); i < k; i += 2 {
			m.Put(tx, i, 0)
		}
	})
	for _, writes := range []bool{false, true} {
		tx := NewTx(nil)
		tx.Pin()
		for i := int64(0); i < k; i++ {
			if writes && i%2 == 0 {
				m.Put(tx, i, 1)
			} else {
				m.Get(tx, i)
			}
		}
		tx.Commit()
		tx.Unpin()
		limit := 0
		if writes {
			limit = k
		}
		if got := m.peekState(tx).checks; got > limit {
			t.Errorf("writes=%v: %d entry checks for %d ops, want at most %d", writes, got, k, limit)
		}
	}
}
