package otb

import (
	"math/rand/v2"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
)

func TestMapSequentialSemantics(t *testing.T) {
	m := NewMap()
	run(t, func(tx *Tx) {
		if !m.Put(tx, 1, 100) {
			t.Error("first Put should insert")
		}
		if m.Put(tx, 1, 200) {
			t.Error("second Put should update")
		}
		if v, ok := m.Get(tx, 1); !ok || v != 200 {
			t.Errorf("Get = %d,%v; want 200,true", v, ok)
		}
		if _, ok := m.Get(tx, 2); ok {
			t.Error("Get(2) should miss")
		}
		if !m.Delete(tx, 1) || m.Delete(tx, 1) {
			t.Error("Delete semantics wrong")
		}
		if m.ContainsKey(tx, 1) {
			t.Error("1 should be gone after delete")
		}
	})
	if m.Len() != 0 {
		t.Fatalf("Len = %d, want 0", m.Len())
	}
}

func TestMapWriteEliminationAndUpgrades(t *testing.T) {
	m := NewMap()
	// Put then Delete of a fresh key eliminate entirely.
	run(t, func(tx *Tx) {
		m.Put(tx, 5, 50)
		if !m.Delete(tx, 5) {
			t.Error("Delete of pending insert should succeed")
		}
		if m.ContainsKey(tx, 5) {
			t.Error("5 should be locally absent")
		}
	})
	if m.Len() != 0 {
		t.Fatal("eliminated pair must not touch the map")
	}

	// Delete then Put of an existing key becomes an update.
	run(t, func(tx *Tx) { m.Put(tx, 7, 70) })
	run(t, func(tx *Tx) {
		if !m.Delete(tx, 7) {
			t.Error("Delete(7)")
		}
		if !m.Put(tx, 7, 71) {
			t.Error("Put after Delete should report insert")
		}
		if v, _ := m.Get(tx, 7); v != 71 {
			t.Errorf("Get = %d, want 71", v)
		}
	})
	if snap := m.Snapshot(); snap[7] != 71 || len(snap) != 1 {
		t.Fatalf("Snapshot = %v, want {7:71}", snap)
	}

	// Update then Delete of an existing key deletes it.
	run(t, func(tx *Tx) {
		m.Put(tx, 7, 72)
		if !m.Delete(tx, 7) {
			t.Error("Delete after update should succeed")
		}
	})
	if m.Len() != 0 {
		t.Fatal("7 should be deleted")
	}
}

func TestMapMatchesModel(t *testing.T) {
	f := func(ops []uint32) bool {
		m := NewMap()
		model := map[int64]uint64{}
		for _, op := range ops {
			key := int64(op % 32)
			val := uint64(op >> 8)
			switch (op / 32) % 3 {
			case 0:
				var inserted bool
				run(t, func(tx *Tx) { inserted = m.Put(tx, key, val) })
				_, had := model[key]
				if inserted == had {
					return false
				}
				model[key] = val
			case 1:
				var deleted bool
				run(t, func(tx *Tx) { deleted = m.Delete(tx, key) })
				_, had := model[key]
				if deleted != had {
					return false
				}
				delete(model, key)
			default:
				var v uint64
				var ok bool
				run(t, func(tx *Tx) { v, ok = m.Get(tx, key) })
				want, had := model[key]
				if ok != had || (ok && v != want) {
					return false
				}
			}
		}
		snap := m.Snapshot()
		if len(snap) != len(model) {
			return false
		}
		for k, v := range model {
			if snap[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMapAtomicTransfer moves value between two keys atomically; the total
// must be conserved at every transactional observation.
func TestMapAtomicTransfer(t *testing.T) {
	m := NewMap()
	const keys = 8
	const initial = 100
	run(t, func(tx *Tx) {
		for k := int64(0); k < keys; k++ {
			m.Put(tx, k, initial)
		}
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				from := int64(rng.IntN(keys))
				to := int64(rng.IntN(keys))
				if from == to {
					continue
				}
				Atomic(nil, func(tx *Tx) {
					fv, _ := m.Get(tx, from)
					tv, _ := m.Get(tx, to)
					if fv == 0 {
						return
					}
					m.Put(tx, from, fv-1)
					m.Put(tx, to, tv+1)
				})
			}
		}(uint64(w + 1))
	}
	for i := 0; i < 300; i++ {
		var total uint64
		Atomic(nil, func(tx *Tx) {
			total = 0
			for k := int64(0); k < keys; k++ {
				v, ok := m.Get(tx, k)
				if !ok {
					t.Errorf("key %d vanished", k)
				}
				total += v
			}
		})
		if total != keys*initial {
			t.Fatalf("observed total %d, want %d", total, keys*initial)
		}
	}
	close(stop)
	wg.Wait()
}

func TestMapValueValidationDoomsStaleReaders(t *testing.T) {
	m := NewMap()
	run(t, func(tx *Tx) { m.Put(tx, 1, 10) })
	attempts := 0
	Atomic(nil, func(tx *Tx) {
		attempts++
		v, _ := m.Get(tx, 1)
		if attempts == 1 {
			if v != 10 {
				t.Errorf("first read = %d, want 10", v)
			}
			done := make(chan struct{})
			go func() {
				Atomic(nil, func(tx2 *Tx) { m.Put(tx2, 1, 11) })
				close(done)
			}()
			<-done
			m.Get(tx, 99) // post-validation must catch the changed value
			t.Error("stale value should have aborted attempt 1")
		} else if v != 11 {
			t.Errorf("retry read = %d, want 11", v)
		}
	})
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
}

// BenchmarkMapTxSize puts the cost of a map op against the size of the
// transaction it runs in on record: b.N ops, alternately Put and Delete of
// random keys in a map holding about 4 k of 8 k keys, committed in
// transactions of 1, 8, 64 or 1024 ops. OTB post-validates the whole read
// set after every op, so ns/op grows with the size; it should grow with the
// number of entries, not with maxLevel times it.
func BenchmarkMapTxSize(b *testing.B) {
	const keys = 8192
	for _, size := range []int{1, 8, 64, 1024} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			m := NewMap()
			for k := int64(1); k <= keys; k += 128 {
				Atomic(nil, func(tx *Tx) {
					for i := k; i < k+128; i += 2 {
						m.Put(tx, i, uint64(i))
					}
				})
			}
			r := rand.New(rand.NewPCG(1, uint64(size)))
			b.ResetTimer()
			for done := 0; done < b.N; {
				n := min(size, b.N-done)
				Atomic(nil, func(tx *Tx) {
					for i := 0; i < n; i++ {
						if k := 1 + r.Int64N(keys); i%2 == 0 {
							m.Put(tx, k, uint64(i))
						} else {
							m.Delete(tx, k)
						}
					}
				})
				done += n
			}
		})
	}
}
