package mvotb

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/abort"
	"repro/internal/chaos"
	"repro/internal/chaos/failpoint"
	"repro/internal/chaos/leak"
	"repro/internal/otb"
	"repro/internal/spin"
)

// TestBucketIsOneCacheLine: neighbouring bucket locks never share a line.
func TestBucketIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(bucket{}); n != spin.CacheLineSize {
		t.Fatalf("unsafe.Sizeof(bucket{}) = %d, want %d", n, spin.CacheLineSize)
	}
}

// TestTwoTablesOneTimestamp: the runtime attaches once per transaction, not
// once per table, so a commit over a set and a map draws one timestamp —
// every version it installs carries the same createTS, which is what lets a
// snapshot reader see all of the transaction or none of it.
func TestTwoTablesOneTimestamp(t *testing.T) {
	rt := New(Options{GCInterval: time.Hour})
	defer rt.Stop()
	s, m := rt.NewSet(8), rt.NewMap(8)
	otb.Atomic(nil, func(tx *otb.Tx) {
		s.Add(tx, 1)
		m.Put(tx, 1, 10)
		s.Add(tx, 2)
		m.Put(tx, 2, 20)
		if got := len(tx.Attached()); got != 1 {
			t.Errorf("transaction over two tables attached %d structures, want 1 (the runtime)", got)
		}
	})
	ts := s.t.bucket(1).find(1).head.Load().createTS
	for _, tab := range []*table{s.t, m.t} {
		for k := int64(1); k <= 2; k++ {
			if got := tab.bucket(k).find(k).head.Load().createTS; got != ts {
				t.Errorf("key %d installed at timestamp %d, want the transaction's single %d", k, got, ts)
			}
		}
	}
}

// TestTwoTablesSnapshotAtomic is the same rule seen from the reader's side:
// a writer toggles key k in a set and a map of one runtime in one
// transaction, and a concurrent snapshot reader must find k in both tables
// or in neither — two timestamps would leave a snapshot between them.
func TestTwoTablesSnapshotAtomic(t *testing.T) {
	defer leak.Check(t)()
	rt := New(Options{})
	defer rt.Stop()
	s, m := rt.NewSet(8), rt.NewMap(8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3000; i++ {
			k := int64(i % 4)
			otb.Atomic(nil, func(tx *otb.Tx) {
				if s.Remove(tx, k) {
					m.Delete(tx, k)
				} else {
					s.Add(tx, k)
					m.Put(tx, k, uint64(i))
				}
			})
		}
	}()
	for k := int64(0); ; k = (k + 1) % 4 {
		var inSet, inMap bool
		rt.ReadOnly(func(x *STx) {
			inSet = s.SnapContains(x, k)
			inMap = m.SnapContains(x, k)
		})
		if inSet != inMap {
			t.Errorf("snapshot saw key %d in set=%v map=%v: the transaction's two tables committed at different timestamps", k, inSet, inMap)
			break
		}
		select {
		case <-done:
			return
		default:
		}
	}
	<-done
}

// TestMixedInstallFailpointRecovery arms mvotb.commit.install in a mixed
// transaction whose otb.ListSet attached first. The point sits at the end of
// the runtime's PreCommit — every lock of both structures held, nothing of
// either published — so the panic must leave the list unchanged and every
// bucket lock released with its version unchanged, and the structures must
// keep working.
func TestMixedInstallFailpointRecovery(t *testing.T) {
	defer leak.Check(t)()
	failpoint.DisarmAll()
	rt := New(Options{GCInterval: time.Hour})
	defer rt.Stop()
	list, m := otb.NewListSet(), rt.NewMap(8)
	move := func(k int64) {
		otb.Atomic(nil, func(tx *otb.Tx) {
			if list.Remove(tx, k) {
				m.Put(tx, k, uint64(k))
			} else {
				list.Add(tx, k)
				m.Delete(tx, k)
			}
		})
	}
	for k := int64(0); k < 8; k++ {
		move(k) // all eight keys start in the list
	}
	versions := func() []uint32 {
		out := make([]uint32, len(m.t.buckets))
		for i := range m.t.buckets {
			out[i] = m.t.buckets[i].lock.Load()
		}
		return out
	}
	keysBefore, versBefore := list.Keys(), versions()

	disarm := failpoint.Arm("mvotb.commit.install", failpoint.Spec{Action: failpoint.Panic, Nth: 1})
	func() {
		defer func() {
			pv, ok := recover().(*failpoint.PanicValue)
			if !ok || pv.Name != "mvotb.commit.install" {
				t.Fatalf("recovered %v, want the armed failpoint's panic", pv)
			}
		}()
		move(3)
		t.Fatal("armed transaction committed")
	}()
	disarm()

	if got := list.Keys(); len(got) != len(keysBefore) {
		t.Errorf("list changed by the failed transaction: %v, was %v", got, keysBefore)
	}
	for i, v := range versions() {
		if v != versBefore[i] {
			t.Errorf("bucket %d lock version %d after recovery, want unchanged %d (released, nothing published)", i, v, versBefore[i])
		}
	}
	if n := len(m.Snapshot()); n != 0 {
		t.Errorf("map holds %d bindings after the failed transaction, want 0", n)
	}
	for k := int64(0); k < 100; k++ {
		move(k % 8)
	}
	// 100 moves over 8 keys: keys 0..3 moved 13 times (now in the map), keys
	// 4..7 moved 12 times (back in the list).
	if inList, inMap := len(list.Keys()), len(m.Snapshot()); inList != 4 || inMap != 4 {
		t.Errorf("after 100 clean follow-ups: %d keys in the list, %d in the map, want 4 and 4", inList, inMap)
	}
}

// TestValidationNamesLockBusy: a commit whose validation finds another
// transaction holding the bucket lock over one of its reads aborts with
// LockBusy, as otb.ListSet's and the skip list's do, and fails no lock
// attempt; one whose semantic check fails aborts with Conflict. The
// transaction reads 3 and inserts 5, which hashes to another bucket, so its
// commit takes bucket(5)'s lock and then validates the read of 3. When
// bucket(5) is the one held, PreCommit meets it: LockBusy, and exactly one
// failed lock attempt counted.
func TestValidationNamesLockBusy(t *testing.T) {
	rt := New(Options{GCInterval: time.Hour})
	defer rt.Stop()
	s := rt.NewSet(8)
	if s.t.bucket(3) == s.t.bucket(5) {
		t.Fatal("3 and 5 share a bucket: the commit would meet the lock in PreCommit, not in validation")
	}
	for _, c := range []struct {
		name     string
		held     int64 // the key whose bucket another transaction holds
		failures uint64
	}{
		{"validation", 3, 0},
		{"precommit", 5, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			var ctr spin.Counters
			tx := otb.NewTx(&ctr)
			tx.Pin()
			s.Contains(tx, 3)
			s.Add(tx, 5)
			release := chaos.HoldLock(t, &s.t.bucket(c.held).lock)
			chaos.ExpectAbort(t, abort.LockBusy, tx.Commit)
			tx.Rollback()
			tx.Unpin()
			release()
			if n := ctr.CASFailures.Load(); n != c.failures {
				t.Errorf("%d failed lock attempts counted, want %d", n, c.failures)
			}
		})
	}

	// The same transaction with 3 inserted under it fails its semantic
	// check: Conflict.
	tx := otb.NewTx(nil)
	tx.Pin()
	defer tx.Unpin()
	s.Contains(tx, 3)
	s.Add(tx, 5)
	otb.Atomic(nil, func(tx *otb.Tx) { s.Add(tx, 3) })
	chaos.ExpectAbort(t, abort.Conflict, tx.Commit)
	tx.Rollback()
}
