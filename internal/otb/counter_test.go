package otb

import (
	"sync"
	"testing"

	"repro/internal/abort"
	"repro/internal/chaos"
	"repro/internal/spin"
)

// Tests of the lists' commit counters and of record-then-validate: what
// the validation a counter skips must still catch, what an op's own
// validation must catch, and the work the counters save.

// keyed is the part of SkipSet, Map and ListSet these tests drive.
type keyed interface {
	get(tx *Tx, k int64) (uint64, bool) // what a read of k observes
	add(tx *Tx, k int64)
	remove(tx *Tx, k int64)
	// change alters what get observes for present key k: a map updates the
	// value in place, a set removes the key.
	change(tx *Tx, k int64)
	view(tx *Tx) *counterView
}

func has(s keyed, tx *Tx, k int64) bool {
	_, ok := s.get(tx, k)
	return ok
}

type keyedSet struct{ *SkipSet }

func (s keyedSet) get(tx *Tx, k int64) (uint64, bool) { return 0, s.Contains(tx, k) }
func (s keyedSet) add(tx *Tx, k int64)                { s.Add(tx, k) }
func (s keyedSet) remove(tx *Tx, k int64)             { s.Remove(tx, k) }
func (s keyedSet) change(tx *Tx, k int64)             { s.Remove(tx, k) }
func (s keyedSet) view(tx *Tx) *counterView           { return &s.state(tx).view }

type keyedMap struct{ *Map }

func (m keyedMap) get(tx *Tx, k int64) (uint64, bool) { return m.Get(tx, k) }
func (m keyedMap) add(tx *Tx, k int64)                { m.Put(tx, k, uint64(k)) }
func (m keyedMap) remove(tx *Tx, k int64)             { m.Delete(tx, k) }
func (m keyedMap) change(tx *Tx, k int64)             { m.Put(tx, k, uint64(k)+1) }
func (m keyedMap) view(tx *Tx) *counterView           { return &m.state(tx).view }

type keyedList struct{ *ListSet }

func (s keyedList) get(tx *Tx, k int64) (uint64, bool) { return 0, s.Contains(tx, k) }
func (s keyedList) add(tx *Tx, k int64)                { s.Add(tx, k) }
func (s keyedList) remove(tx *Tx, k int64)             { s.Remove(tx, k) }
func (s keyedList) change(tx *Tx, k int64)             { s.Remove(tx, k) }
func (s keyedList) view(tx *Tx) *counterView           { return &s.state(tx).view }

type keyedKind struct {
	name string
	mk   func() keyed
}

var (
	skipKinds = []keyedKind{
		{"skipset", func() keyed { return keyedSet{NewSkipSet()} }},
		{"map", func() keyed { return keyedMap{NewMap()} }},
	}
	listKind   = keyedKind{"listset", func() keyed { return keyedList{NewListSet()} }}
	keyedKinds = append(skipKinds[:len(skipKinds):len(skipKinds)], listKind)
)

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
				has1 := has(s, tx, 1)
				if attempts > 1 {
					return
				}
				chaos.CommitConcurrently(func() {
					Atomic(nil, func(tx2 *Tx) { s.add(tx2, 1); s.add(tx2, 2) })
				})
				has2 := has(s, tx, 2)
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
// 1 → 4 validates again, but 3 and 5 were never absent together. The op
// records its entry for 5 before it validates, so that validation sees C2's
// insert and the attempt aborts.
func TestOpOutcomeHoldsWithEntries(t *testing.T) {
	for _, kind := range keyedKinds {
		t.Run(kind.name, func(t *testing.T) {
			s := kind.mk()
			run(t, func(tx *Tx) { s.add(tx, 1); s.add(tx, 4); s.add(tx, 5) })
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
			if has(s, a, 3) {
				t.Fatal("A: key 3 present before anyone added it")
			}
			run(t, func(tx *Tx) { s.add(tx, 3); s.remove(tx, 5) })
			during = func() {
				during = func() {}
				chaos.CommitConcurrently(func() {
					Atomic(nil, func(tx *Tx) { s.remove(tx, 3); s.add(tx, 5) })
				})
			}
			chaos.ExpectAbort(t, abort.Conflict, func() {
				if has(s, a, 5) {
					t.Error("A returned 5 present from a traversal that found it absent")
				} else {
					t.Error("A observed 3 and 5 both absent, a state the set never held")
				}
			})
			a.Rollback()
		})
	}
}

// gate is a structure with no state of its own that stops a committing
// transaction until released: in its ValidateWithLocks or, with onCommit,
// in its OnCommit. Attached after a transaction's last operation, the
// first stops the commit once every list has validated, with the semantic
// locks held and nothing published. Attached between two lists, the second
// stops it half published.
type gate struct {
	slot             Slot
	onCommit         bool
	reached, release chan struct{}
}

func newGate(onCommit bool) *gate {
	g := &gate{onCommit: onCommit, reached: make(chan struct{}), release: make(chan struct{})}
	g.slot = NewSlot(func() Datastructure { return g })
	return g
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

// TestHalfPublishedCommitAborts: C inserts 1 into x and 2 into y, and
// stops after publishing x, before y. A read 2 as absent before C began and
// now finds 1: it has seen half of C and must abort. Only y's counter can
// tell it, and only because C moved every list's counter in PreCommit,
// before publishing in any of them.
func TestHalfPublishedCommitAborts(t *testing.T) {
	for _, kind := range keyedKinds {
		t.Run(kind.name, func(t *testing.T) {
			x, y := kind.mk(), kind.mk()
			a := NewTx(nil)
			a.Pin()
			defer a.Unpin()
			if has(y, a, 2) {
				t.Fatal("A: key 2 present before anyone added it")
			}
			g := newGate(true)
			finish := commitBehind(t, g, func(c *Tx) {
				x.add(c, 1)
				c.Attach(&g.slot)
				y.add(c, 2)
			})
			// C holds its locks, so A's validation finds one held.
			chaos.ExpectAbort(t, abort.LockBusy, func() {
				has1 := has(x, a, 1)
				t.Errorf("A returned 1 present=%v with 2 absent; C was half published", has1)
			})
			a.Rollback()
			finish()
			run(t, func(tx *Tx) {
				if !has(x, tx, 1) || !has(y, tx, 2) {
					t.Error("C's commit is incomplete")
				}
			})
		})
	}
}

// TestWriterCommitValidatesUnderLocks: a writer's commit validation runs in
// full under its locks. A reads key 1 as absent in x and changes 20 in y. B
// then reads 20, inserts 1 into x, validates and stops before publishing.
// Unless A's commit samples the lock B holds on 1's predecessor, both
// commit and each misses the other's write (write skew). Run over one list
// and over two, since the list A read may also be one it does not write.
func TestWriterCommitValidatesUnderLocks(t *testing.T) {
	for _, two := range []bool{false, true} {
		name := map[bool]string{false: "one list", true: "two lists"}[two]
		t.Run(name, func(t *testing.T) {
			for _, kind := range keyedKinds {
				t.Run(kind.name, func(t *testing.T) {
					// A set's remove of 20 also locks 20's predecessors.
					// Those include the head, which B locks for 1, when
					// 20's tower outgrows 10's; then A aborts in PreCommit
					// without validating, so the round is run again. A
					// validation that finds B's lock aborts with LockBusy
					// too, so the rounds are told apart by PreCommit's
					// failed lock attempt.
					for round := 1; ; round++ {
						r, inPreCommit := writeSkewRound(t, kind, two)
						if r != abort.LockBusy || round == 20 {
							t.Fatalf("round %d: A's commit aborted with %v, want %v", round, r, abort.LockBusy)
						}
						if !inPreCommit {
							break
						}
					}
				})
			}
		})
	}
}

// writeSkewRound runs TestWriterCommitValidatesUnderLocks's schedule once
// on fresh lists and returns the reason A's commit aborted with, and whether
// it aborted in PreCommit, on a lock it failed to take.
func writeSkewRound(t *testing.T, kind keyedKind, two bool) (abort.Reason, bool) {
	x, y := kind.mk(), kind.mk()
	if !two {
		y = x
	}
	// 10 keeps 20's bottom-level predecessor apart from 1's.
	run(t, func(tx *Tx) { y.add(tx, 10); y.add(tx, 20) })
	var want uint64
	run(t, func(tx *Tx) { want, _ = y.get(tx, 20) })

	var ctr spin.Counters
	a := NewTx(&ctr)
	a.Pin()
	defer a.Unpin()
	if has(x, a, 1) {
		t.Fatal("A: key 1 present before anyone added it")
	}
	y.change(a, 20)

	g := newGate(false)
	finishB := commitBehind(t, g, func(b *Tx) {
		if v, ok := y.get(b, 20); !ok || v != want {
			t.Errorf("B: get(20) = %d,%v; want %d,true", v, ok, want)
		}
		x.add(b, 1)
		b.Attach(&g.slot)
	})
	r, aborted := abortOf(a.Commit)
	if !aborted {
		t.Fatal("A committed beside B: write skew")
	}
	a.Rollback()
	finishB()
	run(t, func(tx *Tx) {
		if v, ok := y.get(tx, 20); !ok || v != want {
			t.Errorf("get(20) = %d,%v after A aborted, want %d,true", v, ok, want)
		}
		if !has(x, tx, 1) {
			t.Error("B's insert of 1 is missing")
		}
	})
	return r, ctr.CASFailures.Load() > 0
}

// abortOf runs f and reports the reason it aborted with, if it did.
func abortOf(f func()) (r abort.Reason, aborted bool) {
	defer func() {
		switch p := recover().(type) {
		case nil:
		case abort.Signal:
			r, aborted = p.Reason, true
		default:
			panic(p)
		}
	}()
	f()
	return 0, false
}

// TestReaderSeesValidatedWriter: a commit that has validated is ordered
// before any later commit that invalidates its reads, so a reader may not
// skip past it even before it publishes. C reads 60 in y, inserts 10 into
// x, validates and stops before publishing. D then changes 60 and commits.
// A reads 60 (changed) and 10 (absent): committing A would order it after D
// and before C, while C precedes D. C announced on x's counter before
// taking its locks, so A cannot skip x and must abort.
func TestReaderSeesValidatedWriter(t *testing.T) {
	for _, kind := range keyedKinds {
		t.Run(kind.name, func(t *testing.T) {
			x, y := kind.mk(), kind.mk()
			run(t, func(tx *Tx) { y.add(tx, 60) })
			g := newGate(false)
			finishC := commitBehind(t, g, func(c *Tx) {
				if !has(y, c, 60) {
					t.Error("C: 60 absent; want present")
				}
				x.add(c, 10)
				c.Attach(&g.slot)
			})
			run(t, func(tx *Tx) { y.change(tx, 60) })

			a := NewTx(nil)
			a.Pin()
			defer a.Unpin()
			// C holds its locks, so A's validation finds one held.
			chaos.ExpectAbort(t, abort.LockBusy, func() {
				v, ok := y.get(a, 60)
				has10 := has(x, a, 10)
				a.Commit()
				t.Errorf("A committed 60=%d,%v and 10 present=%v before C published", v, ok, has10)
			})
			a.Rollback()
			finishC()
		})
	}
}

// txLinearWork counts the entries validation re-checks in one 1024-op
// transaction running alone over a list made by mk. Post-validating every
// entry after every op re-checks k²/2 of them (over half a million); with
// the commit counter no post-validation of a list nothing was published in
// checks anything, and a write-free commit checks nothing either. A
// writer's commit checks each entry once, in the list it writes and in a
// list it only read alike: that validation is unconditional.
func txLinearWork(t *testing.T, mk func() keyed) {
	const k = 1024
	s, other := mk(), mk()
	run(t, func(tx *Tx) {
		for i := int64(0); i < k; i += 2 {
			s.add(tx, i)
		}
	})
	for _, c := range []struct {
		name           string
		writes, writer bool // writes in s; a write elsewhere
		want           int
	}{
		{"reader", false, false, 0},
		{"writer", true, true, k},
		{"writer elsewhere", false, true, k},
	} {
		tx := NewTx(nil)
		tx.Pin()
		for i := int64(0); i < k; i++ {
			if c.writes && i%2 == 0 {
				s.change(tx, i)
			} else {
				has(s, tx, i)
			}
		}
		if c.writer && !c.writes {
			other.add(tx, 1)
		}
		tx.Commit()
		tx.Unpin()
		if got := s.view(tx).checks; got != c.want {
			t.Errorf("%s: %d entry checks for %d ops, want %d", c.name, got, k, c.want)
		}
	}
}

// TestSkipTxLinearWork is txLinearWork over both skip-list structures.
func TestSkipTxLinearWork(t *testing.T) {
	for _, kind := range skipKinds {
		t.Run(kind.name, func(t *testing.T) { txLinearWork(t, kind.mk) })
	}
}

// TestListTxLinearWork is txLinearWork over ListSet.
func TestListTxLinearWork(t *testing.T) { txLinearWork(t, listKind.mk) }
