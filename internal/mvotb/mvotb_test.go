package mvotb_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos/leak"
	"repro/internal/mvotb"
	"repro/internal/otb"
)

func newRuntime(t testing.TB) *mvotb.Runtime {
	t.Helper()
	rt := mvotb.New(mvotb.Options{})
	t.Cleanup(rt.Stop)
	return rt
}

func TestSetBasics(t *testing.T) {
	leak.CheckCleanup(t)
	rt := newRuntime(t)
	s := rt.NewSet(64)
	otb.Atomic(nil, func(tx *otb.Tx) {
		if !s.Add(tx, 1) {
			t.Error("Add(1) on empty set = false")
		}
		if s.Add(tx, 1) {
			t.Error("second Add(1) in same tx = true")
		}
		if !s.Contains(tx, 1) {
			t.Error("Contains(1) after Add = false (read-your-writes)")
		}
		if s.Contains(tx, 2) {
			t.Error("Contains(2) = true")
		}
	})
	otb.Atomic(nil, func(tx *otb.Tx) {
		if !s.Contains(tx, 1) {
			t.Error("Contains(1) in later tx = false")
		}
		if !s.Remove(tx, 1) {
			t.Error("Remove(1) = false")
		}
		if s.Contains(tx, 1) {
			t.Error("Contains(1) after Remove in same tx = true")
		}
		if s.Remove(tx, 1) {
			t.Error("second Remove(1) in same tx = true")
		}
	})
	rt.ReadOnly(func(x *mvotb.STx) {
		if s.SnapContains(x, 1) {
			t.Error("SnapContains(1) after committed remove = true")
		}
	})
	if n := s.Len(); n != 0 {
		t.Errorf("Len = %d, want 0", n)
	}
}

func TestMapBasics(t *testing.T) {
	leak.CheckCleanup(t)
	rt := newRuntime(t)
	m := rt.NewMap(64)
	otb.Atomic(nil, func(tx *otb.Tx) {
		if !m.Put(tx, 7, 70) {
			t.Error("Put(7) on empty map: inserted = false")
		}
		if m.Put(tx, 7, 71) {
			t.Error("second Put(7): inserted = true")
		}
		if v, ok := m.Get(tx, 7); !ok || v != 71 {
			t.Errorf("Get(7) = %d,%v want 71,true", v, ok)
		}
	})
	otb.Atomic(nil, func(tx *otb.Tx) {
		if v, ok := m.Get(tx, 7); !ok || v != 71 {
			t.Errorf("Get(7) in later tx = %d,%v want 71,true", v, ok)
		}
		if !m.Delete(tx, 7) {
			t.Error("Delete(7) = false")
		}
		if m.ContainsKey(tx, 7) {
			t.Error("ContainsKey(7) after Delete = true")
		}
		if m.Delete(tx, 7) {
			t.Error("second Delete(7) = true")
		}
	})
	rt.ReadOnly(func(x *mvotb.STx) {
		if _, ok := m.SnapGet(x, 7); ok {
			t.Error("SnapGet(7) after committed delete: ok = true")
		}
	})
}

// TestSnapshotIsolation holds a reader's snapshot across a committed update
// and checks the reader keeps seeing its begin-time state while a fresh
// reader sees the new one.
func TestSnapshotIsolation(t *testing.T) {
	leak.CheckCleanup(t)
	rt := newRuntime(t)
	s := rt.NewSet(64)
	m := rt.NewMap(64)
	otb.Atomic(nil, func(tx *otb.Tx) {
		s.Add(tx, 1)
		m.Put(tx, 1, 100)
	})
	pinned := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.ReadOnly(func(x *mvotb.STx) {
			close(pinned)
			<-release
			if !s.SnapContains(x, 1) {
				t.Error("old reader: SnapContains(1) = false after concurrent remove")
			}
			if s.SnapContains(x, 2) {
				t.Error("old reader: SnapContains(2) = true, sees future insert")
			}
			if v, ok := m.SnapGet(x, 1); !ok || v != 100 {
				t.Errorf("old reader: SnapGet(1) = %d,%v want 100,true", v, ok)
			}
		})
	}()
	<-pinned
	otb.Atomic(nil, func(tx *otb.Tx) {
		s.Remove(tx, 1)
		s.Add(tx, 2)
		m.Put(tx, 1, 200)
	})
	rt.ReadOnly(func(x *mvotb.STx) {
		if s.SnapContains(x, 1) {
			t.Error("new reader: SnapContains(1) = true")
		}
		if !s.SnapContains(x, 2) {
			t.Error("new reader: SnapContains(2) = false")
		}
		if v, ok := m.SnapGet(x, 1); !ok || v != 200 {
			t.Errorf("new reader: SnapGet(1) = %d,%v want 200,true", v, ok)
		}
	})
	close(release)
	<-done
}

// TestSnapshotAtomicity: a reader must never observe half of a committed
// multi-key transaction. Updaters atomically move a token between two keys;
// readers must always see exactly one of them.
func TestSnapshotAtomicity(t *testing.T) {
	leak.CheckCleanup(t)
	rt := newRuntime(t)
	// One bucket-collision-prone small table raises contention on purpose.
	s := rt.NewSet(8)
	otb.Atomic(nil, func(tx *otb.Tx) { s.Add(tx, 0) })
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		at := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			next := (at + 1) % 3
			otb.Atomic(nil, func(tx *otb.Tx) {
				s.Remove(tx, at)
				s.Add(tx, next)
			})
			at = next
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				rt.ReadOnly(func(x *mvotb.STx) {
					n := 0
					for k := int64(0); k < 3; k++ {
						if s.SnapContains(x, k) {
							n++
						}
					}
					if n != 1 {
						t.Errorf("snapshot sees %d tokens, want exactly 1", n)
					}
				})
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestReadOnlyCtxCanceled: a canceled context is observed at begin.
func TestReadOnlyCtxCanceled(t *testing.T) {
	rt := newRuntime(t)
	s := rt.NewSet(8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := rt.ReadOnlyCtx(ctx, func(x *mvotb.STx) { ran = true; _ = s.SnapContains(x, 1) }); err == nil {
		t.Fatal("ReadOnlyCtx(canceled) = nil error")
	}
	if ran {
		t.Fatal("body ran under canceled context")
	}
}

// TestGCBoundsChains is the reclamation acceptance test: a pinned reader
// holds history alive while updaters churn one key (the chain grows); once
// the reader drains and GC runs, the chain collapses back to a single
// version and the tombstone-only key vanishes, with no goroutine or epoch
// guard left behind.
func TestGCBoundsChains(t *testing.T) {
	defer leak.Check(t)()
	rt := mvotb.New(mvotb.Options{GCInterval: time.Hour}) // manual GC only
	defer rt.Stop()
	s := rt.NewSet(8)

	otb.Atomic(nil, func(tx *otb.Tx) { s.Add(tx, 99) })
	pinned := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.ReadOnly(func(x *mvotb.STx) {
			if !s.SnapContains(x, 99) {
				t.Error("pinned reader: SnapContains(99) = false at begin")
			}
			close(pinned)
			<-release
			// Re-check after a sweep ran below the pin: GC must have
			// preserved everything this snapshot can see.
			if !s.SnapContains(x, 99) {
				t.Error("pinned reader: SnapContains(99) = false after GC")
			}
			if s.SnapContains(x, 42) {
				t.Error("pinned reader: SnapContains(42) = true, churn leaked past snapshot")
			}
		})
	}()
	<-pinned

	const churns = 40
	for i := 0; i < churns; i++ {
		otb.Atomic(nil, func(tx *otb.Tx) {
			if i%2 == 0 {
				s.Remove(tx, 42)
			} else {
				s.Add(tx, 42)
			}
		})
		otb.Atomic(nil, func(tx *otb.Tx) { s.Add(tx, 7) })
		otb.Atomic(nil, func(tx *otb.Tx) { s.Remove(tx, 7) })
	}
	if got := rt.MaxChainLen(); got < 2 {
		t.Fatalf("chain did not grow under pinned reader: MaxChainLen = %d", got)
	}
	// GC with the reader still pinned must respect its snapshot: chains may
	// shrink above the pin but the begin-time state survives (the reader
	// re-checks its view after release).
	rt.GC()
	close(release)
	<-done
	// With no active snapshot, repeated GC collapses every chain to one
	// version (epoch reclamation needs a few cycles to drain limbo).
	for i := 0; i < 10 && rt.MaxChainLen() > 1; i++ {
		rt.GC()
	}
	if got := rt.MaxChainLen(); got > 1 {
		t.Errorf("MaxChainLen = %d after readers drained and GC, want <= 1", got)
	}
	// Tombstone-only keys (7 was last removed, 42 ends removed on even
	// churn) are unlinked entirely.
	rt.ReadOnly(func(x *mvotb.STx) {
		if s.SnapContains(x, 7) {
			t.Error("key 7 present after final remove")
		}
		if !s.SnapContains(x, 99) {
			t.Error("key 99 lost by GC")
		}
	})
	if n := s.Len(); n != 2 { // 42 (even churns end with Add at i=39? see below) + 99
		// churns=40: i ranges 0..39; i%2==0 → Remove(42), odd → Add(42).
		// Last op on 42 is i=39 (odd) → Add. So 42 and 99 remain.
		t.Errorf("Len = %d, want 2 (keys 42 and 99)", n)
	}
}

// TestConcurrentChurnWithGC runs updaters, snapshot readers and the
// background sweeper together under the race detector.
func TestConcurrentChurnWithGC(t *testing.T) {
	defer leak.Check(t)()
	rt := mvotb.New(mvotb.Options{GCInterval: time.Millisecond})
	defer rt.Stop()
	s := rt.NewSet(32)
	m := rt.NewMap(32)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := int64(w)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				otb.Atomic(nil, func(tx *otb.Tx) {
					if i%2 == 0 {
						s.Add(tx, k)
						m.Put(tx, k, uint64(i))
					} else {
						s.Remove(tx, k)
						m.Delete(tx, k)
					}
				})
				k = (k + 3) % 24
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rt.ReadOnly(func(x *mvotb.STx) {
					for k := int64(0); k < 24; k++ {
						inSet := s.SnapContains(x, k)
						_, inMap := m.SnapGet(x, k)
						if inSet != inMap {
							t.Errorf("snapshot tore set/map pair for key %d: set=%v map=%v", k, inSet, inMap)
							return
						}
					}
				})
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestStopIdempotent: Stop twice is safe and the sweeper goroutine exits.
func TestStopIdempotent(t *testing.T) {
	defer leak.Check(t)()
	rt := mvotb.New(mvotb.Options{GCInterval: time.Millisecond})
	rt.Stop()
	rt.Stop()
}
