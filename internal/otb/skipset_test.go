package otb

import (
	"maps"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/abort"
	"repro/internal/chaos"
	"repro/internal/mem"
)

func TestSkipSetSequentialSemantics(t *testing.T) {
	s := NewSkipSet()
	run(t, func(tx *Tx) {
		if !s.Add(tx, 5) {
			t.Error("first Add(5) should succeed")
		}
		if s.Add(tx, 5) {
			t.Error("duplicate Add(5) in same tx should fail")
		}
		if !s.Contains(tx, 5) {
			t.Error("Contains(5) should see pending add")
		}
		if s.Remove(tx, 7) {
			t.Error("Remove(7) should fail")
		}
	})
	if got := s.Keys(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("Keys = %v, want [5]", got)
	}
	run(t, func(tx *Tx) {
		if !s.Remove(tx, 5) {
			t.Error("Remove(5) should succeed")
		}
		if s.Contains(tx, 5) {
			t.Error("Contains(5) should see pending remove")
		}
	})
	if got := s.Len(); got != 0 {
		t.Fatalf("Len = %d, want 0", got)
	}
}

func TestSkipSetMultiOpCommit(t *testing.T) {
	s := NewSkipSet()
	run(t, func(tx *Tx) {
		for _, k := range []int64{10, 50} {
			s.Add(tx, k)
		}
	})
	run(t, func(tx *Tx) {
		if !s.Add(tx, 20) || !s.Add(tx, 30) || !s.Add(tx, 40) {
			t.Error("adds should succeed")
		}
	})
	want := []int64{10, 20, 30, 40, 50}
	if got := s.Keys(); !equalKeys(got, want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	run(t, func(tx *Tx) {
		if !s.Add(tx, 45) || !s.Remove(tx, 50) || !s.Remove(tx, 20) {
			t.Error("mixed ops should succeed")
		}
	})
	want = []int64{10, 30, 40, 45}
	if got := s.Keys(); !equalKeys(got, want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
}

func TestSkipSetPairInvariant(t *testing.T) {
	const (
		pairs   = 32
		offset  = 1000
		workers = 8
		txsEach = 200
	)
	s := NewSkipSet()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, seed^0x5a5a5a))
			for i := 0; i < txsEach; i++ {
				k := int64(rng.IntN(pairs))
				Atomic(nil, func(tx *Tx) {
					if s.Contains(tx, k) {
						s.Remove(tx, k)
						s.Remove(tx, k+offset)
					} else {
						s.Add(tx, k)
						s.Add(tx, k+offset)
					}
				})
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	present := map[int64]bool{}
	for _, k := range s.Keys() {
		present[k] = true
	}
	for k := int64(0); k < pairs; k++ {
		if present[k] != present[k+offset] {
			t.Fatalf("pair invariant broken for %d", k)
		}
	}
}

func TestSkipSetConcurrentDisjoint(t *testing.T) {
	const workers = 8
	const each = 100
	s := NewSkipSet()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for i := int64(0); i < each; i++ {
				k := base*each + i
				Atomic(nil, func(tx *Tx) {
					if !s.Add(tx, k) {
						t.Errorf("Add(%d) failed", k)
					}
				})
			}
		}(int64(w))
	}
	wg.Wait()
	if got := s.Len(); got != workers*each {
		t.Fatalf("Len = %d, want %d", got, workers*each)
	}
	keys := s.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("keys not strictly ascending: %v >= %v", keys[i-1], keys[i])
		}
	}
}

func TestSkipSetMatchesModel(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewSkipSet()
		model := map[int64]bool{}
		for _, op := range ops {
			key := int64(op % 64)
			var got bool
			switch (op / 64) % 3 {
			case 0:
				run(t, func(tx *Tx) { got = s.Add(tx, key) })
				if got != !model[key] {
					return false
				}
				model[key] = true
			case 1:
				run(t, func(tx *Tx) { got = s.Remove(tx, key) })
				if got != model[key] {
					return false
				}
				delete(model, key)
			default:
				run(t, func(tx *Tx) { got = s.Contains(tx, key) })
				if got != model[key] {
					return false
				}
			}
		}
		return len(model) == s.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSkipTowerHeights checks the towers a skip list actually builds against
// the p = 1/4 geometric distribution: level k is a tower's top level with
// probability (3/4)(1/4)^k. Tolerances are counts (six binomial standard
// deviations), so the test does not depend on timing.
func TestSkipTowerHeights(t *testing.T) {
	const n = 1 << 14
	s := NewSkipSet()
	for k := int64(0); k < n; k += 64 {
		run(t, func(tx *Tx) {
			for i := k; i < k+64; i++ {
				s.Add(tx, i)
			}
		})
	}
	var counts [maxLevel]int
	s.walk(func(node *mem.Tower) bool { counts[node.Top()]++; return true })
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("walked %d towers, want %d", total, n)
	}
	p := 0.75
	for level := 0; level <= 4; level++ {
		want := n * p
		sd := math.Sqrt(n * p * (1 - p))
		if got := float64(counts[level]); math.Abs(got-want) > 6*sd+1 {
			t.Errorf("level %d tops %d towers, want %.0f ± %.0f (p = 1/4)", level, counts[level], want, 6*sd+1)
		}
		p /= 4
	}
	// P(top ≥ 15) = 4^-15: about one in a billion towers.
	for level := 15; level < maxLevel; level++ {
		if counts[level] != 0 {
			t.Errorf("%d towers reach level %d of %d", counts[level], level, maxLevel)
		}
	}
	// The size classes: 1 level with p = 3/4, 2–4 levels with 1/4 − 4^-4,
	// 5–20 levels with 4^-4.
	var classes [3]int
	top := 0
	for level, c := range counts {
		classes[min(level, 1)+min(level/4, 1)] += c
		if c > 0 {
			top = level
		}
	}
	for class, p := range []float64{0.75, 0.25 - 1.0/256, 1.0 / 256} {
		want, sd := n*p, math.Sqrt(n*p*(1-p))
		if got := float64(classes[class]); math.Abs(got-want) > 6*sd+1 {
			t.Errorf("size class %d holds %d towers, want %.0f ± %.0f", class, classes[class], want, 6*sd+1)
		}
	}
	// The live height covers the tallest tower, and no more: it rises only
	// when a taller tower is linked.
	if h := s.core.Height(); h != top+1 {
		t.Errorf("live height %d, want %d (tallest tower tops level %d)", h, top+1, top)
	}
}

// ownershipModel is the sequential model TestLargeTxOwnership checks a map
// and a set against.
type ownershipModel struct {
	m map[int64]uint64
	s map[int64]bool
}

func (md ownershipModel) clone() ownershipModel {
	return ownershipModel{m: maps.Clone(md.m), s: maps.Clone(md.s)}
}

// largeTxGroups × 8 ops is the transaction TestLargeTxOwnership runs.
const largeTxGroups = 128

// largeTx runs 1024 ops within tx on adjacent keys of m and s — inserts,
// value updates and deletes side by side — checking each result against md,
// which it updates as the transaction sees its own writes.
func largeTx(t *testing.T, tx *Tx, m *Map, s *SkipSet, md ownershipModel, val uint64) {
	t.Helper()
	check := func(op string, key int64, got, want bool) {
		t.Helper()
		if got != want {
			t.Fatalf("%s(%d) = %v, model says %v", op, key, got, want)
		}
	}
	toggleMap := func(k int64) {
		if _, ok := md.m[k]; ok {
			check("Delete", k, m.Delete(tx, k), true)
			delete(md.m, k)
		} else {
			check("Put", k, m.Put(tx, k, val), true)
			md.m[k] = val
		}
	}
	toggleSet := func(k int64) {
		if md.s[k] {
			check("Remove", k, s.Remove(tx, k), true)
			delete(md.s, k)
		} else {
			check("Add", k, s.Add(tx, k), true)
			md.s[k] = true
		}
	}
	for j := int64(0); j < largeTxGroups; j++ {
		k := 4 * j
		_, present := md.m[k+1]
		check("Put", k+1, m.Put(tx, k+1, val), !present)
		md.m[k+1] = val
		toggleMap(k + 2)
		toggleMap(k + 3)
		want, present := md.m[k+4]
		got, ok := m.Get(tx, k+4)
		if got != want || ok != present {
			t.Fatalf("Get(%d) = %d, %v; model says %d, %v", k+4, got, ok, want, present)
		}
		check("Contains", k+1, s.Contains(tx, k+1), md.s[k+1])
		toggleSet(k + 2)
		toggleSet(k + 3)
		check("Add", k+4, s.Add(tx, k+4), !md.s[k+4])
		md.s[k+4] = true
	}
}

// commitOnce runs fn in a fresh transaction and commits it, failing the
// test instead of retrying on an abort.
func commitOnce(t *testing.T, fn func(*Tx)) {
	t.Helper()
	tx := NewTx(nil)
	tx.Pin()
	defer tx.Unpin()
	defer func() {
		if r := recover(); r != nil {
			tx.Rollback()
			t.Fatalf("transaction aborted: %v", r)
		}
	}()
	fn(tx)
	tx.Commit()
}

// TestLargeTxOwnership commits 1024-op Map+SkipSet transactions whose
// inserts, updates and deletes sit on adjacent keys, so commit validation
// meets many nodes the transaction locked itself: each must be recognised as
// owned or the commit would fail. A node the transaction only reads, held
// by a second transaction, must still abort it.
func TestLargeTxOwnership(t *testing.T) {
	m, s := NewMap(), NewSkipSet()
	md := ownershipModel{m: map[int64]uint64{}, s: map[int64]bool{}}
	const top = 4 * largeTxGroups // 512: read by Get only, never locked
	commitOnce(t, func(tx *Tx) {
		for k := int64(2); k <= top; k += 2 {
			m.Put(tx, k, uint64(k))
			s.Add(tx, k)
		}
	})
	for k := int64(2); k <= top; k += 2 {
		md.m[k], md.s[k] = uint64(k), true
	}
	verify := func(round string) {
		t.Helper()
		if got := m.Snapshot(); !maps.Equal(got, md.m) {
			t.Fatalf("%s: map has %d keys, model %d, or values differ", round, len(got), len(md.m))
		}
		keys := s.Keys()
		if len(keys) != len(md.s) {
			t.Fatalf("%s: set has %d keys, model %d", round, len(keys), len(md.s))
		}
		for _, k := range keys {
			if !md.s[k] {
				t.Fatalf("%s: set holds %d, model does not", round, k)
			}
		}
	}

	// Round 1: inserts and deletes; one attempt must commit.
	next := md.clone()
	commitOnce(t, func(tx *Tx) { largeTx(t, tx, m, s, next, 100) })
	md = next
	verify("round 1")

	// Round 2: updates too. A second transaction updating key 512, which
	// round 2 only reads, holds that node's lock across round 2's commit.
	tx := NewTx(nil)
	tx.Pin()
	largeTx(t, tx, m, s, md.clone(), 200)
	tx2 := NewTx(nil)
	tx2.Pin()
	if m.Put(tx2, top, 999) {
		t.Fatalf("Put(%d) inserted; the key should be present", top)
	}
	tx2.PreCommitAll()
	// Its commit validation finds the lock held: LockBusy.
	chaos.ExpectAbort(t, abort.LockBusy, tx.Commit)
	tx.Rollback()
	tx.Unpin()
	if !tx2.ValidateAllWithLocks() {
		t.Fatal("second transaction failed validation")
	}
	tx2.OnCommitAll()
	tx2.PostCommitAll()
	tx2.Unpin()
	md.m[top] = 999

	// The retry sees the second transaction's value and commits at once.
	next = md.clone()
	commitOnce(t, func(tx *Tx) { largeTx(t, tx, m, s, next, 200) })
	md = next
	verify("round 2")
}

// TestAbsentNeedsBottomLevelProof: a traversal can find key's node marked
// at an upper level and then, at the bottom, reach a node a later commit
// inserted for the same key. The absent entry preds[0] → succs[0] then
// validates, though the key is present, and an insert recorded from it
// would link a duplicate. The list below is that traversal's view in one
// state: 5's old tower, marked, still on level 1, and a new node for 5 on
// level 0. The op must abort, not return 5 absent.
//
// The towers are linked by hand, under the core's height rule: the live
// height rises to cover old's level 1 before old is linked there.
func TestAbsentNeedsBottomLevelProof(t *testing.T) {
	s := NewSkipSet()
	tail := s.core.Head.Next(0).Load()
	old := mem.NewTower(5, 1)
	old.Next(0).Store(tail)
	old.Next(1).Store(tail)
	old.SetLinked()
	old.Word.Mark()
	s.core.Raise(1)
	s.core.Head.Next(1).Store(old)
	fresh := mem.NewTower(5, 0)
	fresh.Next(0).Store(tail)
	fresh.SetLinked()
	s.core.Head.Next(0).Store(fresh)

	tx := NewTx(nil)
	tx.Pin()
	defer tx.Unpin()
	chaos.ExpectAbort(t, abort.Conflict, func() {
		has5 := s.Contains(tx, 5)
		t.Errorf("Contains(5) = %v from a traversal that saw two nodes for 5", has5)
	})
	tx.Rollback()
}
