package otb

import (
	"testing"

	"repro/internal/abort"
	"repro/internal/chaos"
	"repro/internal/mem"
	"repro/internal/spin"
)

// TestCommitAbortsWhenNodeLockedExternally injects a held semantic lock on
// a node in the write-set path and checks that commit aborts (LockBusy) and
// succeeds once the lock is released.
func TestCommitAbortsWhenNodeLockedExternally(t *testing.T) {
	s := NewListSet()
	run(t, func(tx *Tx) { s.Add(tx, 10); s.Add(tx, 30) })

	// Lock node 10 (the pred of an insert of 20) as a foreign holder.
	victim := s.core.Head.Next() // node 10
	if victim.Key != 10 {
		t.Fatalf("unexpected layout: first key %d", victim.Key)
	}
	release := chaos.HoldLock(t, victim.Word())

	// Drive one attempt by hand: PreCommit must abort with LockBusy.
	tx := NewTx(nil)
	s.Add(tx, 20)
	chaos.ExpectAbort(t, abort.LockBusy, tx.Commit)
	tx.Rollback()

	// After the foreign holder releases, the same transaction succeeds.
	release()
	run(t, func(tx *Tx) { s.Add(tx, 20) })
	want := []int64{10, 20, 30}
	if got := s.Keys(); !equalKeys(got, want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
}

// TestValidationFailsWhenNodeRemovedUnderneath checks that a transaction
// whose read set is invalidated by a concurrent committed remove aborts and
// retries rather than committing a stale answer.
func TestValidationFailsWhenNodeRemovedUnderneath(t *testing.T) {
	s := NewListSet()
	run(t, func(tx *Tx) { s.Add(tx, 5) })
	attempts := 0
	Atomic(nil, func(tx *Tx) {
		attempts++
		present := s.Contains(tx, 5)
		if attempts == 1 {
			if !present {
				t.Error("first attempt should see 5")
			}
			// A concurrent transaction removes 5 and commits.
			chaos.CommitConcurrently(func() {
				Atomic(nil, func(tx2 *Tx) { s.Remove(tx2, 5) })
			})
			// Our presentOnly entry for 5 is now invalid; the next
			// operation's post-validation must abort us.
			s.Contains(tx, 99)
			t.Error("post-validation should have aborted attempt 1")
		}
	})
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
}

// TestSkipSetValidationAbortsOnConflict is the skip-list analogue.
func TestSkipSetValidationAbortsOnConflict(t *testing.T) {
	s := NewSkipSet()
	run(t, func(tx *Tx) { s.Add(tx, 5) })
	attempts := 0
	Atomic(nil, func(tx *Tx) {
		attempts++
		present := s.Contains(tx, 5)
		if attempts == 1 {
			if !present {
				t.Error("first attempt should see 5")
			}
			chaos.CommitConcurrently(func() {
				Atomic(nil, func(tx2 *Tx) { s.Remove(tx2, 5) })
			})
			s.Contains(tx, 99)
			t.Error("post-validation should have aborted attempt 1")
		}
	})
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
}

// TestAbsentEntryInvalidatedByInsert checks the adjacency (readAbsent)
// validation: a concurrent insert between pred and curr must doom a
// transaction that reported the key absent.
func TestAbsentEntryInvalidatedByInsert(t *testing.T) {
	s := NewListSet()
	run(t, func(tx *Tx) { s.Add(tx, 1); s.Add(tx, 9) })
	attempts := 0
	Atomic(nil, func(tx *Tx) {
		attempts++
		present := s.Contains(tx, 5)
		if attempts == 1 {
			if present {
				t.Error("5 should be absent initially")
			}
			chaos.CommitConcurrently(func() {
				Atomic(nil, func(tx2 *Tx) { s.Add(tx2, 5) })
			})
			s.Contains(tx, 99) // triggers post-validation
			t.Error("adjacency validation should have aborted attempt 1")
		} else if !present {
			t.Error("retry should observe 5 present")
		}
	})
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
}

// TestAbortInjectorForcesRetries checks the chaos injector against the OTB
// retry loop: exactly n forced aborts, then a clean commit.
func TestAbortInjectorForcesRetries(t *testing.T) {
	s := NewListSet()
	inj := chaos.NewAbortInjector(3, abort.Conflict)
	var st abort.Stats
	attempts := 0
	Atomic(&st, func(tx *Tx) {
		attempts++
		inj.Hit()
		s.Add(tx, 7)
	})
	if attempts != 4 {
		t.Fatalf("attempts = %d, want 4", attempts)
	}
	if st.Aborts != 3 {
		t.Fatalf("aborts = %d, want 3", st.Aborts)
	}
	run(t, func(tx *Tx) {
		if !s.Contains(tx, 7) {
			t.Error("7 should have been inserted on the final attempt")
		}
	})
}

// TestValidationNamesLockBusy: a validation that finds a lock another
// transaction holds on a node its read set rests on aborts with LockBusy,
// and one whose semantic check fails with Conflict. A transaction reads 10
// and inserts 40, whose predecessor is 30, so its commit takes 30's lock
// and then validates the read of 10 under its locks. mk builds {10, 30, 50};
// the skip list is rebuilt until 10's tower is no taller than 30's, so that
// 10 is 40's predecessor on no level and the commit does not lock it.
func TestValidationNamesLockBusy(t *testing.T) {
	add := func(s keyed) {
		Atomic(nil, func(tx *Tx) { s.add(tx, 10); s.add(tx, 30); s.add(tx, 50) })
	}
	lists := []struct {
		name string
		mk   func() (keyed, func(k int64) *mem.Word)
	}{
		{"listset", func() (keyed, func(int64) *mem.Word) {
			s := NewListSet()
			add(keyedList{s})
			return keyedList{s}, func(k int64) *mem.Word {
				n := s.core.Head
				for n.Key != k {
					n = n.Next()
				}
				return n.Word()
			}
		}},
		{"skipset", func() (keyed, func(int64) *mem.Word) {
			for {
				s := NewSkipSet()
				add(keyedSet{s})
				tower := func(k int64) *mem.Tower {
					n := s.core.Head
					for n.Key != k {
						n = n.Next(0).Load()
					}
					return n
				}
				if tower(10).Top() <= tower(30).Top() {
					return keyedSet{s}, func(k int64) *mem.Word { return &tower(k).Word }
				}
			}
		}},
	}
	for _, l := range lists {
		t.Run(l.name, func(t *testing.T) {
			s, word := l.mk()

			var ctr spin.Counters
			tx := NewTx(&ctr)
			tx.Pin()
			if !has(s, tx, 10) {
				t.Fatal("10 absent")
			}
			s.add(tx, 40)
			release := chaos.HoldLock(t, word(10))
			chaos.ExpectAbort(t, abort.LockBusy, tx.Commit)
			tx.Rollback()
			tx.Unpin()
			release()
			if n := ctr.CASFailures.Load(); n != 0 {
				t.Errorf("PreCommit failed %d lock attempts; the lock should be met in validation", n)
			}

			// The same transaction with 10 removed under it fails its
			// semantic check: Conflict.
			tx = NewTx(nil)
			tx.Pin()
			defer tx.Unpin()
			has(s, tx, 10)
			s.add(tx, 40)
			run(t, func(tx *Tx) { s.remove(tx, 10) })
			chaos.ExpectAbort(t, abort.Conflict, tx.Commit)
			tx.Rollback()
		})
	}
}
