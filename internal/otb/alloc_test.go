package otb_test

import (
	"testing"

	"repro/internal/race"

	"repro/internal/otb"
)

// These tests pin the allocation-free commit fast path (ISSUE 6): a
// steady-state OTB write transaction — traversal, semantic logging, lock
// acquisition, publication, epoch retirement, descriptor recycling — must
// not allocate. They run under -short so the CI smoke lane enforces them on
// every PR.
//
// testing.AllocsPerRun runs with GOMAXPROCS=1; warmup rounds fill the
// descriptor and node pools and prime the epoch-reclamation pipeline (a
// retired node returns to its pool after two epoch advances, so a few nodes
// circulate through limbo in the steady state).

// warmupRounds is enough to fill every pool: the node-recycling pipeline is
// three Exits deep and the per-tx scratch slices stop growing after the
// first few transactions.
const warmupRounds = 200

func runAllocTx(t *testing.T, name string, fn func()) {
	t.Helper()
	if race.Enabled {
		t.Skip("race-mode sync.Pool drops Puts at random; pooled paths cannot be allocation-free")
	}
	for i := 0; i < warmupRounds; i++ {
		fn()
	}
	if allocs := testing.AllocsPerRun(1000, fn); allocs > 0 {
		t.Errorf("%s: %.2f allocs/op on the commit path, want 0", name, allocs)
	}
}

// TestListSetWriteTxAllocFree alternates add and remove of one key so every
// transaction both publishes a write and (on removes) retires a node through
// the epoch pipeline.
func TestListSetWriteTxAllocFree(t *testing.T) {
	set := otb.NewListSet()
	for k := int64(1); k <= 64; k++ {
		otb.Atomic(nil, func(tx *otb.Tx) { set.Add(tx, k) })
	}
	adding := false // first toggle removes an existing key
	key := int64(32)
	fn := func(tx *otb.Tx) {
		if adding {
			set.Add(tx, key)
		} else {
			set.Remove(tx, key)
		}
	}
	runAllocTx(t, "otb list write tx", func() {
		otb.Atomic(nil, fn)
		adding = !adding
	})
}

// TestSkipSetWriteTxAllocFree is the same fast path over the skip-list set,
// whose towers also recycle through the epoch pools.
func TestSkipSetWriteTxAllocFree(t *testing.T) {
	set := otb.NewSkipSet()
	for k := int64(1); k <= 64; k++ {
		otb.Atomic(nil, func(tx *otb.Tx) { set.Add(tx, k) })
	}
	adding := false
	key := int64(32)
	fn := func(tx *otb.Tx) {
		if adding {
			set.Add(tx, key)
		} else {
			set.Remove(tx, key)
		}
	}
	runAllocTx(t, "otb skip write tx", func() {
		otb.Atomic(nil, fn)
		adding = !adding
	})
}

// TestMapWriteTxAllocFree deletes and re-inserts one key: the map is the
// same skip list, so the insert draws its tower from the epoch pool and the
// delete retires one, exactly as the set does. Both transactions run inside
// one measured round because AllocsPerRun truncates to whole allocations
// per round.
func TestMapWriteTxAllocFree(t *testing.T) {
	m := otb.NewMap()
	for k := int64(1); k <= 64; k++ {
		otb.Atomic(nil, func(tx *otb.Tx) { m.Put(tx, k, uint64(k)) })
	}
	key := int64(32)
	del := func(tx *otb.Tx) { m.Delete(tx, key) }
	put := func(tx *otb.Tx) { m.Put(tx, key, 7) }
	runAllocTx(t, "otb map write tx pair", func() {
		otb.Atomic(nil, del)
		otb.Atomic(nil, put)
	})
}

// TestMapLargeWriteTxAllocFree pins the same path for 64-op transactions:
// over 64 adjacent keys one transaction deletes the even keys and inserts
// the odd ones, the next does the reverse, so every transaction carries 32
// inserts and 32 deletes side by side. Once the per-transaction arenas and
// scratch slices have grown, a transaction of any size allocates nothing.
func TestMapLargeWriteTxAllocFree(t *testing.T) {
	m := otb.NewMap()
	const lo, hi = 100, 164
	otb.Atomic(nil, func(tx *otb.Tx) {
		for k := int64(lo); k < hi; k += 2 {
			m.Put(tx, k, uint64(k))
		}
	})
	flip := func(parity int64) func(*otb.Tx) {
		return func(tx *otb.Tx) {
			for k := int64(lo); k < hi; k++ {
				if k%2 == parity {
					m.Delete(tx, k)
				} else {
					m.Put(tx, k, uint64(k))
				}
			}
		}
	}
	dropEven, dropOdd := flip(0), flip(1)
	runAllocTx(t, "otb map 64-op write tx pair", func() {
		otb.Atomic(nil, dropEven)
		otb.Atomic(nil, dropOdd)
	})
}

// TestMapReadTxAllocFree pins the map's read-only fast path (get).
func TestMapReadTxAllocFree(t *testing.T) {
	m := otb.NewMap()
	for k := int64(1); k <= 64; k++ {
		otb.Atomic(nil, func(tx *otb.Tx) { m.Put(tx, k, uint64(k)) })
	}
	fn := func(tx *otb.Tx) { m.Get(tx, 32) }
	runAllocTx(t, "otb map read tx", func() {
		otb.Atomic(nil, fn)
	})
}

// TestListSetReadTxAllocFree pins the read-only fast path (contains).
func TestListSetReadTxAllocFree(t *testing.T) {
	set := otb.NewListSet()
	for k := int64(1); k <= 64; k++ {
		otb.Atomic(nil, func(tx *otb.Tx) { set.Add(tx, k) })
	}
	fn := func(tx *otb.Tx) { set.Contains(tx, 32) }
	runAllocTx(t, "otb list read tx", func() {
		otb.Atomic(nil, fn)
	})
}

// BenchmarkListSetWriteTx reports ns/op and allocs/op for the list-set
// commit fast path (write transaction, single worker — the allocation
// trajectory companion to the throughput matrix).
func BenchmarkListSetWriteTx(b *testing.B) {
	set := otb.NewListSet()
	for k := int64(1); k <= 64; k++ {
		otb.Atomic(nil, func(tx *otb.Tx) { set.Add(tx, k) })
	}
	adding := false
	key := int64(32)
	fn := func(tx *otb.Tx) {
		if adding {
			set.Add(tx, key)
		} else {
			set.Remove(tx, key)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		otb.Atomic(nil, fn)
		adding = !adding
	}
}

// BenchmarkSkipSetWriteTx is BenchmarkListSetWriteTx over the skip list.
func BenchmarkSkipSetWriteTx(b *testing.B) {
	set := otb.NewSkipSet()
	for k := int64(1); k <= 64; k++ {
		otb.Atomic(nil, func(tx *otb.Tx) { set.Add(tx, k) })
	}
	adding := false
	key := int64(32)
	fn := func(tx *otb.Tx) {
		if adding {
			set.Add(tx, key)
		} else {
			set.Remove(tx, key)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		otb.Atomic(nil, fn)
		adding = !adding
	}
}
