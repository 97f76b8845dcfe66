package otb_test

import (
	"testing"
	"time"

	"repro/internal/chaos/failpoint"
	"repro/internal/mem"
	"repro/internal/mvotb"
	"repro/internal/otb"
)

// TestLockSetReleasesEachWordOnce: every OTB structure takes its semantic
// locks through one otb.LockSet, which must lock each distinct word once
// however often the write set names it, release it once after a publish
// (its version advanced by exactly one step) and, after an abort, release
// it with its version unchanged. Inserting keys 1–9 into an empty structure
// in one transaction names some word twice in each: the head, every
// insert's predecessor on every level, in the lists; one of eight buckets in
// the mvotb set. The aborted attempt inserts 11–19 and is stopped at the
// otb.commit.post-lock failpoint with every lock held.
func TestLockSetReleasesEachWordOnce(t *testing.T) {
	rt := mvotb.New(mvotb.Options{GCInterval: time.Hour})
	defer rt.Stop()
	list, skip, m, mv := otb.NewListSet(), otb.NewSkipSet(), otb.NewMap(), rt.NewSet(8)
	structures := []struct {
		name string
		add  func(tx *otb.Tx, k int64)
	}{
		{"listset", func(tx *otb.Tx, k int64) { list.Add(tx, k) }},
		{"skipset", func(tx *otb.Tx, k int64) { skip.Add(tx, k) }},
		{"map", func(tx *otb.Tx, k int64) { m.Put(tx, k, uint64(k)) }},
		{"mvotb-set", func(tx *otb.Tx, k int64) { mv.Add(tx, k) }},
	}
	// step is what one publishing unlock adds to a word's version.
	var ref mem.Word
	ref.TryLock()
	ref.Unlock()
	step := ref.Load()

	// held records the words tx holds, each locked and named once, with
	// their values (a locked word is odd: its unlocked value plus one).
	held := func(t *testing.T, tx *otb.Tx) map[*mem.Word]uint32 {
		t.Helper()
		words := otb.HeldWords(tx)
		if len(words) == 0 || len(words) >= 9 {
			t.Fatalf("%d words held for 9 inserts, want at least one named twice", len(words))
		}
		out := make(map[*mem.Word]uint32, len(words))
		for _, w := range words {
			v := w.Load()
			if _, dup := out[w]; dup {
				t.Errorf("word %p held twice", w)
			}
			if !mem.IsLocked(v) {
				t.Errorf("held word %p is unlocked (%#x)", w, v)
			}
			out[w] = v
		}
		return out
	}

	for _, c := range structures {
		t.Run(c.name, func(t *testing.T) {
			// A commit, driven hook by hook as Tx.Commit does.
			tx := otb.NewTx(nil)
			tx.Pin()
			for k := int64(1); k <= 9; k++ {
				c.add(tx, k)
			}
			tx.PreCommitAll()
			locked := held(t, tx)
			if !tx.ValidateAllWithLocks() {
				t.Fatal("commit validation failed with no concurrent transaction")
			}
			tx.OnCommitAll()
			tx.PostCommitAll()
			tx.Unpin()
			for w, v := range locked {
				if got, want := w.Load(), v-1+step; got != want {
					t.Errorf("word %p is %#x after the commit, want %#x: released once, version advanced once", w, got, want)
				}
			}

			// An attempt that aborts with every lock held.
			tx = otb.NewTx(nil)
			tx.Pin()
			defer tx.Unpin()
			for k := int64(11); k <= 19; k++ {
				c.add(tx, k)
			}
			disarm := failpoint.Arm("otb.commit.post-lock", failpoint.Spec{Action: failpoint.Panic, Nth: 1})
			func() {
				defer func() {
					if pv, ok := recover().(*failpoint.PanicValue); !ok || pv.Name != "otb.commit.post-lock" {
						t.Fatalf("recovered %v, want the armed failpoint's panic", pv)
					}
				}()
				tx.Commit()
			}()
			disarm()
			locked = held(t, tx)
			tx.Rollback()
			for w, v := range locked {
				if got, want := w.Load(), v-1; got != want {
					t.Errorf("word %p is %#x after the abort, want %#x: released, version unchanged", w, got, want)
				}
			}
		})
	}
}
