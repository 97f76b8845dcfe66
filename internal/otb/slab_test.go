package otb

import (
	"math/rand/v2"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/mem/epoch"
	"repro/internal/race"
)

// TestListNodeSize pins the layout the list's speed rests on: a node is
// 16 bytes (conc's TestListNodeSize checks the shared node type), so eight
// share one 128-byte block, and a fresh slab's first block — where the
// sentinels land — is 128-byte aligned.
func TestListNodeSize(t *testing.T) {
	s := NewListSet()
	tail := s.core.Head.Next()
	if a := uintptr(unsafe.Pointer(tail)); a%(mem.SlotSize*mem.BlockSlots) != 0 {
		t.Errorf("first slab block at %#x, not 128-byte aligned", a)
	}
	if tail.Slot() != 0 || s.core.Head.Slot() != 1 {
		t.Errorf("sentinels in slots %d (tail) and %d (head), want 0 and 1",
			tail.Slot(), s.core.Head.Slot())
	}
}

// inBlockHops returns the fraction of the list's next-pointer hops whose two
// ends share one slab block.
func (s *ListSet) inBlockHops() float64 {
	hops, near := 0, 0
	for pred, curr := s.core.Head, s.core.Head.Next(); curr != nil; pred, curr = curr, curr.Next() {
		hops++
		if pred.Slot()/mem.BlockSlots == curr.Slot()/mem.BlockSlots {
			near++
		}
	}
	return float64(near) / float64(hops)
}

// TestListLayoutUnderChurn builds net-set-point's list — half of 16 k keys
// preloaded in seeded random order in 64-op transactions — then churns it
// with single-op 80/10/10 transactions, and checks that the slab keeps key
// neighbours together (the walk's cost is which nodes share a block), that
// its accounting matches the list, and that capacity stays within its bound.
// With eight slots to a block, seeds 1–8 keep 41.8–45.3 % of hops inside one
// block after the preload and after 10 k churn transactions, and 55.9–58.2 %
// after 200 k; the floor is the minimum, rounded down. Under -race the 10 k
// churn runs even without -short: 200 k race-instrumented transactions take
// minutes.
func TestListLayoutUnderChurn(t *testing.T) {
	const keyRange, preload, batch, minNear = 16384, 8192, 64, 0.40
	churn := 200_000
	if testing.Short() || race.Enabled {
		churn = 10_000
	}
	rng := rand.New(rand.NewPCG(21, 4))
	s := NewListSet()
	peak := 0
	keys := rng.Perm(keyRange)[:preload]
	for i := 0; i < preload; i += batch {
		Atomic(nil, func(tx *Tx) {
			for _, k := range keys[i : i+batch] {
				s.Add(tx, int64(k))
			}
		})
		peak = max(peak, s.core.Nodes.Live())
	}
	if f := s.inBlockHops(); f < minNear {
		t.Errorf("after preload %.1f%% of hops stay inside one block, want ≥ %.0f%%", 100*f, 100*minNear)
	} else {
		t.Logf("after preload: %.1f%% of hops inside one block", 100*f)
	}

	for i := 0; i < churn; i++ {
		k, op := rng.Int64N(keyRange), rng.IntN(10)
		Atomic(nil, func(tx *Tx) {
			switch {
			case op < 8:
				s.Contains(tx, k)
			case op == 8:
				s.Add(tx, k)
			default:
				s.Remove(tx, k)
			}
		})
		peak = max(peak, s.core.Nodes.Live())
	}
	if f := s.inBlockHops(); f < minNear {
		t.Errorf("after %d churn transactions %.1f%% of hops stay inside one block, want ≥ %.0f%%",
			churn, 100*f, 100*minNear)
	} else {
		t.Logf("after %d churn transactions: %.1f%% of hops inside one block", churn, 100*f)
	}

	epoch.Default.Drain()
	if live, want := s.core.Nodes.Live(), s.Len()+2; live != want {
		t.Errorf("slab live = %d after drain, want Len()+2 sentinels = %d", live, want)
	}
	if c, bound := s.core.Nodes.Cap(), 2*peak+mem.ChunkSlots; c > bound {
		t.Errorf("slab capacity %d > 2 × peak live %d + one chunk = %d", c, peak, bound)
	}
}

// TestSlabConcurrentChurn has four goroutines add and remove 64 keys, so
// slots are freed and reclaimed concurrently (run it under -race). Then every
// reachable node must own its slot alone, and every free mask must agree with
// the set of reachable nodes.
func TestSlabConcurrentChurn(t *testing.T) {
	const keys, workers = 64, 4
	rounds := 4000
	if testing.Short() {
		rounds = 1000
	}
	s := NewListSet()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 7))
			for i := 0; i < rounds; i++ {
				k := rng.Int64N(keys)
				Atomic(nil, func(tx *Tx) {
					if !s.Remove(tx, k) {
						s.Add(tx, k)
					}
				})
			}
		}(uint64(w))
	}
	wg.Wait()
	epoch.Default.Drain()

	owner := map[uint32]int64{}
	for n := s.core.Head; n != nil; n = n.Next() {
		if prev, dup := owner[n.Slot()]; dup {
			t.Fatalf("slot %d held by keys %d and %d", n.Slot(), prev, n.Key)
		}
		owner[n.Slot()] = n.Key
	}
	for i := uint32(0); i < uint32(s.core.Nodes.Cap()); i++ {
		_, reachable := owner[i]
		if used := s.core.Nodes.InUse(i); used != reachable {
			t.Errorf("slot %d: free mask says in use = %v, list says %v", i, used, reachable)
		}
	}
	if live := s.core.Nodes.Live(); live != len(owner) {
		t.Errorf("slab live = %d, %d nodes reachable", live, len(owner))
	}
}

// TestSlabResolveUnderChurn checks the address arithmetic that finds a
// node's word and slot (run it under -race, which turns on checkptr). Two
// goroutines churn a list spanning more than three chunks while two others
// walk it under an epoch pin and resolve every reachable node: within one
// pinned walk no slot can be recycled, so each node must have its own slot
// and word, and the slab must count the slot in use.
func TestSlabResolveUnderChurn(t *testing.T) {
	const keyRange, preload, batch, churners, walkers = 12000, 6000, 64, 2, 2
	rounds := 2000
	if testing.Short() {
		rounds = 500
	}
	rng := rand.New(rand.NewPCG(5, 9))
	s := NewListSet()
	keys := rng.Perm(keyRange)[:preload]
	for i := 0; i < preload; i += batch {
		Atomic(nil, func(tx *Tx) {
			for _, k := range keys[i:min(i+batch, preload)] {
				s.Add(tx, int64(k))
			}
		})
	}
	if c := s.core.Nodes.Cap(); c <= 3*mem.ChunkSlots {
		t.Fatalf("list spans %d slots, want more than three chunks (%d)", c, 3*mem.ChunkSlots)
	}

	stop := make(chan struct{})
	var walking sync.WaitGroup
	walks := make([]int, walkers)
	for w := range walkers {
		walking.Add(1)
		go func() {
			defer walking.Done()
			slots := map[uint32]int64{}
			words := map[*mem.Word]int64{}
			for {
				select {
				case <-stop:
					return
				default:
				}
				clear(slots)
				clear(words)
				g := epoch.Default.Enter()
				for n := s.core.Head; n != nil; n = n.Next() {
					slot, word := n.Slot(), n.Word()
					if prev, dup := slots[slot]; dup {
						t.Errorf("one walk reached slot %d twice (keys %d and %d)", slot, prev, n.Key)
					}
					if prev, dup := words[word]; dup {
						t.Errorf("keys %d and %d share a word", prev, n.Key)
					}
					slots[slot], words[word] = n.Key, n.Key
					if !s.core.Nodes.InUse(slot) {
						t.Errorf("key %d reachable in slot %d, which the slab counts free", n.Key, slot)
					}
				}
				g.Exit()
				walks[w]++
			}
		}()
	}

	var churning sync.WaitGroup
	for c := range churners {
		churning.Add(1)
		go func() {
			defer churning.Done()
			rng := rand.New(rand.NewPCG(uint64(c), 11))
			for range rounds {
				k := rng.Int64N(keyRange)
				Atomic(nil, func(tx *Tx) {
					if !s.Remove(tx, k) {
						s.Add(tx, k)
					}
				})
			}
		}()
	}
	churning.Wait()
	close(stop)
	walking.Wait()
	for w, n := range walks {
		if n == 0 {
			t.Errorf("walker %d finished no walk during the churn", w)
		}
	}
}

// TestHashSetSharesSlab: the buckets draw from one slab, so 256 buckets and
// 256 keys fit one 32 KB chunk instead of reserving one per bucket.
func TestHashSetSharesSlab(t *testing.T) {
	s := NewHashSet(256)
	Atomic(nil, func(tx *Tx) {
		for k := int64(0); k < 256; k++ {
			s.Add(tx, k)
		}
	})
	slab := s.buckets[0].core.Nodes
	for i, b := range s.buckets {
		if b.core.Nodes != slab {
			t.Fatalf("bucket %d has its own slab", i)
		}
	}
	if s.Len() != 256 {
		t.Fatalf("Len = %d, want 256", s.Len())
	}
	if c := slab.Cap(); c != mem.ChunkSlots {
		t.Errorf("slab holds %d slots, want one chunk (%d)", c, mem.ChunkSlots)
	}
}
