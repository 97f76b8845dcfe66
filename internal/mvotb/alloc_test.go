package mvotb_test

import (
	"testing"

	"repro/internal/mvotb"
	"repro/internal/otb"
	"repro/internal/race"
)

// These tests pin the two MVOTB fast paths at zero allocations per
// operation: the snapshot read path (pooled STx descriptor, no read set, no
// locks) and the updater commit path (pooled descriptor and runner, pooled
// version nodes recycled through epoch reclamation by the sweeper).
//
// The update loop runs a GC cycle per transaction: multi-versioning
// inherently creates one version per write, and the steady state is only
// allocation-free because the sweeper feeds shadowed versions back to the
// pools. Measuring commit+sweep together pins exactly that loop.

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
		t.Errorf("%s: %.2f allocs/op, want 0", name, allocs)
	}
}

func newAllocRuntime(t testing.TB) (*mvotb.Runtime, *mvotb.Set) {
	rt := mvotb.New(mvotb.Options{GCInterval: 1 << 62}) // manual GC in the loop
	t.Cleanup(rt.Stop)
	s := rt.NewSet(64)
	for k := int64(1); k <= 64; k++ {
		otb.Atomic(nil, func(tx *otb.Tx) { s.Add(tx, k) })
	}
	return rt, s
}

// TestReadOnlyAllocFree pins the snapshot path: begin (pin), one read, end.
func TestReadOnlyAllocFree(t *testing.T) {
	rt, s := newAllocRuntime(t)
	var sink bool
	body := func(x *mvotb.STx) { sink = s.SnapContains(x, 32) }
	runAllocTx(t, "mvotb snapshot read tx", func() {
		rt.ReadOnly(body)
	})
	_ = sink
}

// TestWriteTxAllocFree pins the updater commit path plus the sweep that
// recycles the versions it shadowed.
func TestWriteTxAllocFree(t *testing.T) {
	rt, s := newAllocRuntime(t)
	adding := false
	key := int64(32)
	body := func(tx *otb.Tx) {
		if adding {
			s.Add(tx, key)
		} else {
			s.Remove(tx, key)
		}
	}
	runAllocTx(t, "mvotb write tx", func() {
		otb.Atomic(nil, body)
		adding = !adding
		rt.GC()
	})
}

// BenchmarkReadOnlyTx reports ns/op and allocs/op for the snapshot path.
func BenchmarkReadOnlyTx(b *testing.B) {
	rt, s := newAllocRuntime(b)
	var sink bool
	body := func(x *mvotb.STx) { sink = s.SnapContains(x, 32) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.ReadOnly(body)
	}
	_ = sink
}

// BenchmarkWriteTx reports ns/op and allocs/op for the updater commit path
// (with the recycling sweep amortized in, as in the alloc test).
func BenchmarkWriteTx(b *testing.B) {
	rt, s := newAllocRuntime(b)
	adding := false
	key := int64(32)
	body := func(tx *otb.Tx) {
		if adding {
			s.Add(tx, key)
		} else {
			s.Remove(tx, key)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		otb.Atomic(nil, body)
		adding = !adding
		rt.GC()
	}
}
