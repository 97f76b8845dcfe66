package txnet

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/otb"
	"repro/internal/stm"
	"repro/internal/stmds"
)

// ErrBadOp marks a structurally invalid request: an op code a structure
// does not support, or a structure index outside the registry. The server
// answers StatusBadRequest without executing anything.
var ErrBadOp = errors.New("txnet: invalid operation")

// Store executes one transaction — a batch of ops applied atomically —
// against a registry of structures addressed by index. Exec must be
// all-or-nothing: either every op applied and res holds one result per op,
// or nothing applied and an error classifies why (ctx errors propagate
// unchanged; invalid requests wrap ErrBadOp and are detected before any
// transactional work). Implementations are shared by every connection and
// must be safe for concurrent use.
type Store interface {
	Exec(ctx context.Context, ops []Op, res []OpResult) error
	// NumStructs reports the registry size, for request validation.
	NumStructs() int
}

// OTBStore serves OTB structures: any mix of sets, maps and priority
// queues, all updated in one otb.Atomic transaction per request. The zero
// value is empty; register structures before serving (registration is not
// synchronized with traffic).
type OTBStore struct {
	structs []otbStruct
	kinds   []structKind // kinds[i] is the abstract type of structs[i]
}

// otbStruct dispatches ops onto one OTB structure kind. validateOps runs
// before the transaction starts, so apply never fails mid-transaction. dump
// emits ops that rebuild the structure's current state (quiescent callers
// only — snapshots run with the commit path held).
type otbStruct interface {
	apply(tx *otb.Tx, op Op) OpResult
	dump(st uint32, emit func(Op))
}

// NewOTBStore builds the default store: one ListSet (index 0), one Map
// (index 1) and one SkipPQ (index 2) — the three abstract types the paper
// boosts, behind one transactional API (the Proust design space).
func NewOTBStore() *OTBStore {
	s := &OTBStore{}
	s.AddSet(otb.NewListSet())
	s.AddMap(otb.NewMap())
	s.AddPQ(otb.NewSkipPQ())
	return s
}

// NumStructs implements Store.
func (s *OTBStore) NumStructs() int { return len(s.structs) }

// AddSet registers a set (ListSet and SkipSet both qualify) and returns its
// wire index.
func (s *OTBStore) AddSet(set otbSetOps) uint32 { return s.add(kindSet, otbSet{set}) }

// AddMap registers an OTB ordered map and returns its wire index.
func (s *OTBStore) AddMap(m *otb.Map) uint32 { return s.add(kindMap, otbMap{m}) }

// AddPQ registers a skip-list priority queue and returns its wire index.
func (s *OTBStore) AddPQ(q *otb.SkipPQ) uint32 { return s.add(kindPQ, otbPQ{q}) }

func (s *OTBStore) add(k structKind, st otbStruct) uint32 {
	s.structs = append(s.structs, st)
	s.kinds = append(s.kinds, k)
	return uint32(len(s.structs) - 1)
}

// otbSetOps is the common surface of otb.ListSet and otb.SkipSet.
type otbSetOps interface {
	Add(tx *otb.Tx, key int64) bool
	Remove(tx *otb.Tx, key int64) bool
	Contains(tx *otb.Tx, key int64) bool
	Keys() []int64
}

type otbSet struct{ s otbSetOps }

func (w otbSet) apply(tx *otb.Tx, op Op) OpResult {
	switch op.Code {
	case OpAdd:
		return OpResult{OK: w.s.Add(tx, op.Key)}
	case OpRemove:
		return OpResult{OK: w.s.Remove(tx, op.Key)}
	default:
		return OpResult{OK: w.s.Contains(tx, op.Key)}
	}
}

func (w otbSet) dump(st uint32, emit func(Op)) {
	for _, k := range w.s.Keys() {
		emit(Op{Code: OpAdd, Struct: st, Key: k})
	}
}

type otbMap struct{ m *otb.Map }

func (w otbMap) apply(tx *otb.Tx, op Op) OpResult {
	switch op.Code {
	case OpPut:
		return OpResult{OK: w.m.Put(tx, op.Key, op.Val)}
	case OpGet:
		v, ok := w.m.Get(tx, op.Key)
		return OpResult{Out: v, OK: ok}
	case OpDelete:
		return OpResult{OK: w.m.Delete(tx, op.Key)}
	default:
		return OpResult{OK: w.m.ContainsKey(tx, op.Key)}
	}
}

func (w otbMap) dump(st uint32, emit func(Op)) {
	for k, v := range w.m.Snapshot() {
		emit(Op{Code: OpPut, Struct: st, Key: k, Val: v})
	}
}

type otbPQ struct{ q *otb.SkipPQ }

func (w otbPQ) apply(tx *otb.Tx, op Op) OpResult {
	switch op.Code {
	case OpAdd:
		return OpResult{OK: w.q.Add(tx, op.Key)}
	case OpMin:
		k, ok := w.q.Min(tx)
		return OpResult{Out: uint64(k), OK: ok}
	default:
		k, ok := w.q.RemoveMin(tx)
		return OpResult{Out: uint64(k), OK: ok}
	}
}

func (w otbPQ) dump(st uint32, emit func(Op)) {
	for _, k := range w.q.Keys() {
		emit(Op{Code: OpAdd, Struct: st, Key: k})
	}
}

// DumpOps emits one op per live entry across every registered structure,
// in registry order — replaying them against an empty store rebuilds the
// current state. The caller must be quiescent (no concurrent Exec); the
// durable commit path guarantees this by snapshotting under its lock.
func (s *OTBStore) DumpOps(emit func(Op)) {
	for i, st := range s.structs {
		st.dump(uint32(i), emit)
	}
}

// structKind is the abstract type held by one registry slot.
type structKind uint8

const (
	kindSet structKind = iota
	kindMap
	kindPQ
)

// opAllowed is the op-support table every Store consults: opAllowed[k][c]
// reports whether op code c is legal on a structure of kind k.
var opAllowed = [...][numOpCodes]bool{
	kindSet: {OpAdd: true, OpRemove: true, OpContains: true},
	kindMap: {OpPut: true, OpGet: true, OpDelete: true, OpContains: true},
	kindPQ:  {OpAdd: true, OpMin: true, OpRemoveMin: true},
}

// setAndMap is the fixed registry of the MVOTB and STM stores: a set at
// index 0 and a map at index 1.
var setAndMap = []structKind{kindSet, kindMap}

// validateOps rejects malformed batches before any transactional work —
// codes in range, structure indexes inside the registry, and every code
// legal on the kind of structure it addresses — so a failing batch provably
// applied nothing.
func validateOps(kinds []structKind, ops []Op) error {
	// Two passes: an out-of-range code or index anywhere in the batch is
	// reported ahead of a legal code on the wrong kind of structure.
	for i, op := range ops {
		if op.Code >= numOpCodes {
			return fmt.Errorf("%w: op %d has unknown code %d", ErrBadOp, i, uint8(op.Code))
		}
		if int(op.Struct) >= len(kinds) {
			return fmt.Errorf("%w: op %d addresses structure %d of %d", ErrBadOp, i, op.Struct, len(kinds))
		}
	}
	for i, op := range ops {
		if !opAllowed[kinds[op.Struct]][op.Code] {
			return fmt.Errorf("%w: op %d: %s on structure %d", ErrBadOp, i, op.Code, op.Struct)
		}
	}
	return nil
}

// Exec implements Store: all ops run in one OTB transaction, so the batch
// commits or aborts as a unit.
func (s *OTBStore) Exec(ctx context.Context, ops []Op, res []OpResult) error {
	if err := validateOps(s.kinds, ops); err != nil {
		return err
	}
	return otb.AtomicCtx(ctx, nil, func(tx *otb.Tx) {
		for i, op := range ops {
			res[i] = s.structs[op.Struct].apply(tx, op)
		}
	})
}

// STMStore serves word-based STM structures: a set and a map, both backed
// by stmds.HashMap chains over the given algorithm's cells, executed with
// the algorithm's AtomicCtx. It demonstrates that the network layer is
// runtime-agnostic — any stm.AlgorithmCtx hosts the same wire API.
//
// Structure indexes: 0 is a set (Add/Remove/Contains via membership), 1 is
// a map (Put/Get/Delete/Contains). Capacity is fixed at construction (the
// underlying arenas do not grow).
type STMStore struct {
	alg stm.AlgorithmCtx
	set *stmds.HashMap // membership via Put(key, 1)/Delete
	kv  *stmds.HashMap
}

// NewSTMStore builds an STM-backed store over alg with room for capacity
// inserts per structure.
func NewSTMStore(alg stm.AlgorithmCtx, capacity int) *STMStore {
	return &STMStore{
		alg: alg,
		set: stmds.NewHashMap(256, capacity),
		kv:  stmds.NewHashMap(256, capacity),
	}
}

// NumStructs implements Store.
func (s *STMStore) NumStructs() int { return len(setAndMap) }

// Exec implements Store.
func (s *STMStore) Exec(ctx context.Context, ops []Op, res []OpResult) error {
	if err := validateOps(setAndMap, ops); err != nil {
		return err
	}
	return s.alg.AtomicCtx(ctx, func(tx stm.Tx) {
		for i, op := range ops {
			if op.Struct == 0 {
				switch op.Code {
				case OpAdd:
					res[i] = OpResult{OK: s.set.Put(tx, op.Key, 1)}
				case OpRemove:
					res[i] = OpResult{OK: s.set.Delete(tx, op.Key)}
				default:
					_, found := s.set.Get(tx, op.Key)
					res[i] = OpResult{OK: found}
				}
				continue
			}
			switch op.Code {
			case OpPut:
				res[i] = OpResult{OK: s.kv.Put(tx, op.Key, op.Val)}
			case OpGet:
				v, found := s.kv.Get(tx, op.Key)
				res[i] = OpResult{Out: v, OK: found}
			case OpDelete:
				res[i] = OpResult{OK: s.kv.Delete(tx, op.Key)}
			default:
				_, found := s.kv.Get(tx, op.Key)
				res[i] = OpResult{OK: found}
			}
		}
	})
}
