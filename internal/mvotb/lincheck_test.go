package mvotb_test

import (
	"testing"

	"repro/internal/lincheck"
	"repro/internal/mvotb"
	"repro/internal/otb"
	"repro/internal/telemetry"
)

// Linearizability and opacity checks for the multi-version runtime, to the
// same bar as every other runtime: single-operation transactions as
// linearizable set/map operations, multi-operation transactions against the
// transactional opacity specification, and — the MVOTB-specific leg — a
// read-mostly split where half the threads run Contains-only bodies through
// the never-abort snapshot path, recorded into the same history.

// atomicSet runs each abstract operation in its own MVOTB transaction.
type atomicSet struct {
	rt *mvotb.Runtime
	s  *mvotb.Set
}

func (a atomicSet) Add(k int64) (ok bool) {
	otb.Atomic(nil, func(tx *otb.Tx) { ok = a.s.Add(tx, k) })
	return
}

func (a atomicSet) Remove(k int64) (ok bool) {
	otb.Atomic(nil, func(tx *otb.Tx) { ok = a.s.Remove(tx, k) })
	return
}

// Contains goes through the snapshot path on purpose: a single-key
// read-only transaction is a linearizable Contains (it takes effect at its
// snapshot point), and routing it here puts the reader protocol itself
// under the checker.
func (a atomicSet) Contains(k int64) (ok bool) {
	a.rt.ReadOnly(func(x *mvotb.STx) { ok = a.s.SnapContains(x, k) })
	return
}

// atomicMap is atomicSet for the map, Get/ContainsKey via snapshots.
type atomicMap struct {
	rt *mvotb.Runtime
	m  *mvotb.Map
}

func (a atomicMap) Put(k int64, v uint64) (ok bool) {
	otb.Atomic(nil, func(tx *otb.Tx) { ok = a.m.Put(tx, k, v) })
	return
}

func (a atomicMap) Get(k int64) (v uint64, ok bool) {
	a.rt.ReadOnly(func(x *mvotb.STx) { v, ok = a.m.SnapGet(x, k) })
	return
}

func (a atomicMap) Delete(k int64) (ok bool) {
	otb.Atomic(nil, func(tx *otb.Tx) { ok = a.m.Delete(tx, k) })
	return
}

func TestLincheckMVOTBSet(t *testing.T) {
	rt := newRuntime(t)
	cfg := lincheck.DefaultConfig(21)
	cfg.Name = "mvotb/set"
	if testing.Short() {
		cfg = cfg.Scaled(4)
	}
	lincheck.StressSet(t, cfg, func() lincheck.Set {
		return atomicSet{rt, rt.NewSet(16)}
	})
}

func TestLincheckMVOTBMap(t *testing.T) {
	rt := newRuntime(t)
	cfg := lincheck.DefaultConfig(22)
	cfg.Name = "mvotb/map"
	if testing.Short() {
		cfg = cfg.Scaled(4)
	}
	lincheck.StressMap(t, cfg, func() lincheck.Map {
		return atomicMap{rt, rt.NewMap(16)}
	})
}

// txView is one attempt's transactional view of an MVOTB set.
type txView struct {
	tx *otb.Tx
	s  *mvotb.Set
}

func (v txView) Add(k int64) bool      { return v.s.Add(v.tx, k) }
func (v txView) Remove(k int64) bool   { return v.s.Remove(v.tx, k) }
func (v txView) Contains(k int64) bool { return v.s.Contains(v.tx, k) }

// roView is a snapshot transaction's read-only view; the RO stress driver
// only ever calls Contains on it.
type roView struct {
	x *mvotb.STx
	s *mvotb.Set
}

func (v roView) Add(int64) bool        { panic("mvotb: write on read-only view") }
func (v roView) Remove(int64) bool     { panic("mvotb: write on read-only view") }
func (v roView) Contains(k int64) bool { return v.s.SnapContains(v.x, k) }

// TestOpacityMVOTBSetTxns checks multi-operation updater transactions for
// opacity.
func TestOpacityMVOTBSetTxns(t *testing.T) {
	rt := newRuntime(t)
	s := rt.NewSet(16)
	cfg := lincheck.DefaultSTMConfig(23)
	cfg.Name = "mvotb/set-txns"
	cfg.Cells = 8
	if testing.Short() {
		cfg = cfg.Scaled(2)
	}
	lincheck.StressTxnSet(t, cfg, func(th int, body func(lincheck.Set)) {
		otb.Atomic(nil, func(tx *otb.Tx) { body(txView{tx, s}) })
	})
}

// TestOpacityMVOTBReadMostly is the acceptance check for the snapshot path:
// updater and snapshot transactions interleave in one recorded history, the
// opacity checker must find a commit order, and the MVOTB-RO meter must
// show zero aborts — the read-only population never retried.
func TestOpacityMVOTBReadMostly(t *testing.T) {
	rt := newRuntime(t)
	s := rt.NewSet(16)
	cfg := lincheck.DefaultSTMConfig(24)
	cfg.Name = "mvotb/set-ro"
	cfg.Cells = 8
	if testing.Short() {
		cfg = cfg.Scaled(2)
	}
	telemetry.Enable()
	before := telemetry.M("MVOTB-RO").Snapshot()
	lincheck.StressTxnSetRO(t, cfg,
		func(th int, body func(lincheck.Set)) {
			otb.Atomic(nil, func(tx *otb.Tx) { body(txView{tx, s}) })
		},
		func(th int, body func(lincheck.Set)) {
			rt.ReadOnly(func(x *mvotb.STx) { body(roView{x, s}) })
		})
	after := telemetry.M("MVOTB-RO").Snapshot()
	if d := after.TotalAborts() - before.TotalAborts(); d != 0 {
		t.Errorf("MVOTB-RO aborts grew by %d during read-mostly stress, want 0", d)
	}
	if after.Commits == before.Commits {
		t.Error("MVOTB-RO commits did not grow; snapshot path not exercised")
	}
}
