package otb

import (
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/chaos/leak"
)

// TestSkipListWalksUnderChurn runs the non-transactional bottom-level walks
// (Len, Snapshot, Min, Keys) against writers that keep deleting and
// re-inserting a small key range, so towers are retired and recycled while
// walkers stand on them. An unpinned walk follows a recycled tower's cleared
// next pointer and crashes; a pinned one only ever sees a consistent (if
// stale) ascending chain.
func TestSkipListWalksUnderChurn(t *testing.T) {
	leak.CheckCleanup(t)
	const keys, writers, walkers = 16, 4, 3
	rounds := 2000
	if testing.Short() {
		rounds = 500
	}
	m, s := NewMap(), NewSkipSet()

	stop := make(chan struct{})
	var walking sync.WaitGroup
	for i := 0; i < walkers; i++ {
		walking.Add(1)
		go func() {
			defer walking.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n := m.Len(); n > keys {
					t.Errorf("Map.Len = %d with %d distinct keys", n, keys)
				}
				for k, v := range m.Snapshot() {
					if k < 0 || k >= keys || v != uint64(k) {
						t.Errorf("Snapshot[%d] = %d, want key in [0,%d) mapped to itself", k, v, keys)
					}
				}
				if k, ok := s.Min(); ok && (k < 0 || k >= keys) {
					t.Errorf("Min = %d, want a key in [0,%d)", k, keys)
				}
				if n := s.Len(); n > keys {
					t.Errorf("SkipSet.Len = %d with %d distinct keys", n, keys)
				}
				ks := s.Keys()
				for i := 1; i < len(ks); i++ {
					if ks[i-1] >= ks[i] {
						t.Errorf("Keys not strictly ascending: %v", ks)
						break
					}
				}
			}
		}()
	}

	var writing sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(seed uint64) {
			defer writing.Done()
			rng := rand.New(rand.NewPCG(seed, 15))
			for i := 0; i < rounds; i++ {
				k := rng.Int64N(keys)
				Atomic(nil, func(tx *Tx) {
					if m.Delete(tx, k) {
						s.Remove(tx, k)
					} else {
						m.Put(tx, k, uint64(k))
						s.Add(tx, k)
					}
				})
			}
		}(uint64(w))
	}
	writing.Wait()
	close(stop)
	walking.Wait()

	// Every transaction toggled a key in both structures, so they agree.
	snap := m.Snapshot()
	ks := s.Keys()
	if len(ks) != len(snap) || m.Len() != len(ks) {
		t.Fatalf("set holds %v, map holds %v", ks, snap)
	}
	for _, k := range ks {
		if _, ok := snap[k]; !ok {
			t.Fatalf("set holds %v, map holds %v", ks, snap)
		}
	}
}
