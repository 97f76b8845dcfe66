// Package conformance runs one shared semantic specification against every
// set, map and priority-queue implementation in the repository: the
// hand-over-hand concurrent structures (internal/conc), the optimistically
// boosted ones (internal/otb), the pessimistically boosted ones
// (internal/boosting), the multi-version ones (internal/mvotb) and the
// STM-backed ones (internal/stmds).
//
// The specification is the sequential model from internal/lincheck; the
// package provides uniform adapters so each implementation presents the
// lincheck.Set / lincheck.Map / lincheck.PQ interface regardless of whether
// its native API is direct, transactional over *otb.Tx / *boosting.Tx, or
// transactional over stm.Tx. Transactional adapters wrap every operation in
// a standalone single-operation transaction.
package conformance

import (
	"repro/internal/boosting"
	"repro/internal/conc"
	"repro/internal/lincheck"
	"repro/internal/mvotb"
	"repro/internal/otb"
	"repro/internal/stm"
	"repro/internal/stm/norec"
	"repro/internal/stmds"
)

// arenaCap sizes the stmds arenas. STM attempts allocate fresh nodes even
// when they abort, so the capacity is far above the committed element count.
const arenaCap = 1 << 18

// SetEntry names one set implementation. New returns a fresh instance and a
// cleanup function (which stops the backing STM where there is one).
type SetEntry struct {
	Name string
	New  func() (lincheck.Set, func())
}

// MapEntry names one map implementation.
type MapEntry struct {
	Name string
	New  func() (lincheck.Map, func())
}

// PQEntry names one priority-queue implementation.
type PQEntry struct {
	Name string
	New  func() (lincheck.PQ, func())
}

func noStop() {}

// Sets returns every set implementation in the repository.
func Sets() []SetEntry {
	return []SetEntry{
		{"conc/lazy-list", func() (lincheck.Set, func()) { return conc.NewLazyList(), noStop }},
		{"conc/lazy-skip", func() (lincheck.Set, func()) { return conc.NewLazySkipList(), noStop }},
		{"otb/listset", func() (lincheck.Set, func()) { return otbSet{otb.NewListSet()}, noStop }},
		{"otb/skipset", func() (lincheck.Set, func()) { return otbSet{otb.NewSkipSet()}, noStop }},
		{"otb/hashset", func() (lincheck.Set, func()) { return otbSet{otb.NewHashSet(16)}, noStop }},
		{"boosting/list", func() (lincheck.Set, func()) {
			return boostSet{boosting.NewSet(conc.NewLazyList(), 64)}, noStop
		}},
		{"boosting/skip", func() (lincheck.Set, func()) {
			return boostSet{boosting.NewSet(conc.NewLazySkipList(), 64)}, noStop
		}},
		{"mvotb/set", func() (lincheck.Set, func()) {
			rt := mvotb.New(mvotb.Options{})
			s := rt.NewSet(16)
			return mvotbSet{otbSet{s}, rt, s}, rt.Stop
		}},
		{"stmds/list", func() (lincheck.Set, func()) {
			alg := norec.New()
			return stmSet{alg, stmds.NewList(arenaCap)}, alg.Stop
		}},
		{"stmds/skiplist", func() (lincheck.Set, func()) {
			alg := norec.New()
			return stmSet{alg, stmds.NewSkipList(arenaCap)}, alg.Stop
		}},
		{"stmds/dlist", func() (lincheck.Set, func()) {
			alg := norec.New()
			return stmSet{alg, stmds.NewDList(arenaCap)}, alg.Stop
		}},
		{"stmds/rbtree", func() (lincheck.Set, func()) {
			alg := norec.New()
			return stmSet{alg, rbSet{stmds.NewRBTree(arenaCap)}}, alg.Stop
		}},
	}
}

// Maps returns every map implementation in the repository.
func Maps() []MapEntry {
	return []MapEntry{
		{"otb/map", func() (lincheck.Map, func()) { return otbMap{otb.NewMap()}, noStop }},
		{"mvotb/map", func() (lincheck.Map, func()) {
			rt := mvotb.New(mvotb.Options{})
			m := rt.NewMap(16)
			return mvotbMap{otbMap{m}, rt, m}, rt.Stop
		}},
		{"stmds/hashmap", func() (lincheck.Map, func()) {
			alg := norec.New()
			return stmMap{alg, stmds.NewHashMap(64, arenaCap)}, alg.Stop
		}},
	}
}

// PQs returns every priority-queue implementation in the repository.
func PQs() []PQEntry {
	return []PQEntry{
		{"conc/heap", func() (lincheck.PQ, func()) { return conc.NewHeapPQ(), noStop }},
		{"conc/skip", func() (lincheck.PQ, func()) {
			return boosting.SkipPQAdapter{Q: conc.NewSkipPQ()}, noStop
		}},
		{"otb/heap", func() (lincheck.PQ, func()) { return otbHeapPQ{otb.NewHeapPQ()}, noStop }},
		{"otb/skip", func() (lincheck.PQ, func()) { return otbSkipPQ{otb.NewSkipPQ()}, noStop }},
		{"boosting/heap", func() (lincheck.PQ, func()) { return boostPQ{boosting.NewPQ()}, noStop }},
		{"boosting/skip", func() (lincheck.PQ, func()) {
			return boostPQ{boosting.NewPQOver(boosting.SkipPQAdapter{Q: conc.NewSkipPQ()})}, noStop
		}},
	}
}

// otbSetOps is the transactional set surface shared by ListSet, SkipSet,
// HashSet and the multi-version Set.
type otbSetOps interface {
	Add(*otb.Tx, int64) bool
	Remove(*otb.Tx, int64) bool
	Contains(*otb.Tx, int64) bool
}

// otbSet runs each operation in its own OTB transaction.
type otbSet struct{ s otbSetOps }

func (a otbSet) Add(k int64) (ok bool) {
	otb.Atomic(nil, func(tx *otb.Tx) { ok = a.s.Add(tx, k) })
	return
}

func (a otbSet) Remove(k int64) (ok bool) {
	otb.Atomic(nil, func(tx *otb.Tx) { ok = a.s.Remove(tx, k) })
	return
}

func (a otbSet) Contains(k int64) (ok bool) {
	otb.Atomic(nil, func(tx *otb.Tx) { ok = a.s.Contains(tx, k) })
	return
}

// otbMapOps is the transactional map surface shared by otb.Map and the
// multi-version Map.
type otbMapOps interface {
	Put(*otb.Tx, int64, uint64) bool
	Get(*otb.Tx, int64) (uint64, bool)
	Delete(*otb.Tx, int64) bool
}

// otbMap runs each operation in its own OTB transaction.
type otbMap struct{ m otbMapOps }

func (a otbMap) Put(k int64, v uint64) (ok bool) {
	otb.Atomic(nil, func(tx *otb.Tx) { ok = a.m.Put(tx, k, v) })
	return
}

func (a otbMap) Get(k int64) (v uint64, ok bool) {
	otb.Atomic(nil, func(tx *otb.Tx) { v, ok = a.m.Get(tx, k) })
	return
}

func (a otbMap) Delete(k int64) (ok bool) {
	otb.Atomic(nil, func(tx *otb.Tx) { ok = a.m.Delete(tx, k) })
	return
}

type otbHeapPQ struct{ q *otb.HeapPQ }

func (a otbHeapPQ) Add(k int64) {
	otb.Atomic(nil, func(tx *otb.Tx) { a.q.Add(tx, k) })
}

func (a otbHeapPQ) Min() (k int64, ok bool) {
	otb.Atomic(nil, func(tx *otb.Tx) { k, ok = a.q.Min(tx) })
	return
}

func (a otbHeapPQ) RemoveMin() (k int64, ok bool) {
	otb.Atomic(nil, func(tx *otb.Tx) { k, ok = a.q.RemoveMin(tx) })
	return
}

type otbSkipPQ struct{ q *otb.SkipPQ }

func (a otbSkipPQ) Add(k int64) {
	otb.Atomic(nil, func(tx *otb.Tx) { a.q.Add(tx, k) })
}

func (a otbSkipPQ) Min() (k int64, ok bool) {
	otb.Atomic(nil, func(tx *otb.Tx) { k, ok = a.q.Min(tx) })
	return
}

func (a otbSkipPQ) RemoveMin() (k int64, ok bool) {
	otb.Atomic(nil, func(tx *otb.Tx) { k, ok = a.q.RemoveMin(tx) })
	return
}

// mvotbSet is an OTB set — the multi-version structures update inside
// ordinary OTB transactions — whose membership queries go through the
// never-abort snapshot path (a single-key read-only transaction linearizes
// at its snapshot point).
type mvotbSet struct {
	otbSet
	rt *mvotb.Runtime
	s  *mvotb.Set
}

func (a mvotbSet) Contains(k int64) (ok bool) {
	a.rt.ReadOnly(func(x *mvotb.STx) { ok = a.s.SnapContains(x, k) })
	return
}

// mvotbMap is mvotbSet for the map.
type mvotbMap struct {
	otbMap
	rt *mvotb.Runtime
	m  *mvotb.Map
}

func (a mvotbMap) Get(k int64) (v uint64, ok bool) {
	a.rt.ReadOnly(func(x *mvotb.STx) { v, ok = a.m.SnapGet(x, k) })
	return
}

// boostSet runs each operation in its own boosted transaction.
type boostSet struct{ s *boosting.Set }

func (a boostSet) Add(k int64) (ok bool) {
	boosting.Atomic(nil, nil, func(tx *boosting.Tx) { ok = a.s.Add(tx, k) })
	return
}

func (a boostSet) Remove(k int64) (ok bool) {
	boosting.Atomic(nil, nil, func(tx *boosting.Tx) { ok = a.s.Remove(tx, k) })
	return
}

func (a boostSet) Contains(k int64) (ok bool) {
	boosting.Atomic(nil, nil, func(tx *boosting.Tx) { ok = a.s.Contains(tx, k) })
	return
}

type boostPQ struct{ q *boosting.PQ }

func (a boostPQ) Add(k int64) {
	boosting.Atomic(nil, nil, func(tx *boosting.Tx) { a.q.Add(tx, k) })
}

func (a boostPQ) Min() (k int64, ok bool) {
	boosting.Atomic(nil, nil, func(tx *boosting.Tx) { k, ok = a.q.Min(tx) })
	return
}

func (a boostPQ) RemoveMin() (k int64, ok bool) {
	boosting.Atomic(nil, nil, func(tx *boosting.Tx) { k, ok = a.q.RemoveMin(tx) })
	return
}

// stmSetOps is the transactional set surface shared by the stmds
// structures.
type stmSetOps interface {
	Add(stm.Tx, int64) bool
	Remove(stm.Tx, int64) bool
	Contains(stm.Tx, int64) bool
}

// rbSet renames RBTree's Insert/Delete to the common Add/Remove surface.
type rbSet struct{ t *stmds.RBTree }

func (r rbSet) Add(tx stm.Tx, k int64) bool      { return r.t.Insert(tx, k) }
func (r rbSet) Remove(tx stm.Tx, k int64) bool   { return r.t.Delete(tx, k) }
func (r rbSet) Contains(tx stm.Tx, k int64) bool { return r.t.Contains(tx, k) }

// stmSet runs each operation in its own STM transaction.
type stmSet struct {
	alg stm.Algorithm
	s   stmSetOps
}

func (a stmSet) Add(k int64) (ok bool) {
	a.alg.Atomic(func(tx stm.Tx) { ok = a.s.Add(tx, k) })
	return
}

func (a stmSet) Remove(k int64) (ok bool) {
	a.alg.Atomic(func(tx stm.Tx) { ok = a.s.Remove(tx, k) })
	return
}

func (a stmSet) Contains(k int64) (ok bool) {
	a.alg.Atomic(func(tx stm.Tx) { ok = a.s.Contains(tx, k) })
	return
}

// stmMap runs each operation in its own STM transaction.
type stmMap struct {
	alg stm.Algorithm
	m   *stmds.HashMap
}

func (a stmMap) Put(k int64, v uint64) (ok bool) {
	a.alg.Atomic(func(tx stm.Tx) { ok = a.m.Put(tx, k, v) })
	return
}

func (a stmMap) Get(k int64) (v uint64, ok bool) {
	a.alg.Atomic(func(tx stm.Tx) { v, ok = a.m.Get(tx, k) })
	return
}

func (a stmMap) Delete(k int64) (ok bool) {
	a.alg.Atomic(func(tx stm.Tx) { ok = a.m.Delete(tx, k) })
	return
}
