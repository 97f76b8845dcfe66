package txnet

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/otb"
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

// otbSetOps is a set driven by an OTB transaction (otb.ListSet, otb.SkipSet
// and mvotb.Set all qualify), plus the key walk a dump needs.
type otbSetOps interface {
	Add(tx *otb.Tx, key int64) bool
	Remove(tx *otb.Tx, key int64) bool
	Contains(tx *otb.Tx, key int64) bool
	Keys() []int64
}

// otbMapOps is otbSetOps for maps (otb.Map and mvotb.Map). The third
// abstract type, the priority queue, has one implementation, *otb.SkipPQ.
type otbMapOps interface {
	Put(tx *otb.Tx, key int64, val uint64) bool
	Get(tx *otb.Tx, key int64) (uint64, bool)
	Delete(tx *otb.Tx, key int64) bool
	ContainsKey(tx *otb.Tx, key int64) bool
	Snapshot() map[int64]uint64
}

// applySet, applyMap and applyPQ are the only op-code dispatch in the
// package: one per abstract type, shared by every store. validateOps has
// already run, so the default arm is the one remaining legal code.
func applySet(s otbSetOps, tx *otb.Tx, op Op) OpResult {
	switch op.Code {
	case OpAdd:
		return OpResult{OK: s.Add(tx, op.Key)}
	case OpRemove:
		return OpResult{OK: s.Remove(tx, op.Key)}
	default:
		return OpResult{OK: s.Contains(tx, op.Key)}
	}
}

func applyMap(m otbMapOps, tx *otb.Tx, op Op) OpResult {
	switch op.Code {
	case OpPut:
		return OpResult{OK: m.Put(tx, op.Key, op.Val)}
	case OpGet:
		v, ok := m.Get(tx, op.Key)
		return OpResult{Out: v, OK: ok}
	case OpDelete:
		return OpResult{OK: m.Delete(tx, op.Key)}
	default:
		return OpResult{OK: m.ContainsKey(tx, op.Key)}
	}
}

func applyPQ(q *otb.SkipPQ, tx *otb.Tx, op Op) OpResult {
	switch op.Code {
	case OpAdd:
		return OpResult{OK: q.Add(tx, op.Key)}
	case OpMin:
		k, ok := q.Min(tx)
		return OpResult{Out: uint64(k), OK: ok}
	default:
		k, ok := q.RemoveMin(tx)
		return OpResult{Out: uint64(k), OK: ok}
	}
}

// OTBStore serves OTB structures: any mix of sets, maps and priority
// queues, all updated in one otb.Atomic transaction per request. The zero
// value is empty; register structures before serving (registration is not
// synchronized with traffic).
type OTBStore struct {
	structs []otbStruct
	kinds   []structKind // kinds[i] is the abstract type of structs[i]
}

// otbStruct is one registry slot. validateOps runs before the transaction
// starts, so apply never fails mid-transaction. dump emits ops that rebuild
// the structure's current state (quiescent callers only — snapshots run with
// the commit path held).
type otbStruct struct {
	apply func(tx *otb.Tx, op Op) OpResult
	dump  func(st uint32, emit func(Op))
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

// dumpKeys emits one OpAdd per key: the dump of a set or a priority queue.
func dumpKeys(keys func() []int64) func(uint32, func(Op)) {
	return func(st uint32, emit func(Op)) {
		for _, k := range keys() {
			emit(Op{Code: OpAdd, Struct: st, Key: k})
		}
	}
}

// AddSet registers a set (otb.ListSet, otb.SkipSet and mvotb.Set all
// qualify) and returns its wire index.
func (s *OTBStore) AddSet(set otbSetOps) uint32 {
	return s.add(kindSet, otbStruct{
		func(tx *otb.Tx, op Op) OpResult { return applySet(set, tx, op) },
		dumpKeys(set.Keys),
	})
}

// AddMap registers a map (otb.Map or mvotb.Map) and returns its wire index.
func (s *OTBStore) AddMap(m otbMapOps) uint32 {
	return s.add(kindMap, otbStruct{
		func(tx *otb.Tx, op Op) OpResult { return applyMap(m, tx, op) },
		func(st uint32, emit func(Op)) {
			for k, v := range m.Snapshot() {
				emit(Op{Code: OpPut, Struct: st, Key: k, Val: v})
			}
		},
	})
}

// AddPQ registers a skip-list priority queue and returns its wire index.
func (s *OTBStore) AddPQ(q *otb.SkipPQ) uint32 {
	return s.add(kindPQ, otbStruct{
		func(tx *otb.Tx, op Op) OpResult { return applyPQ(q, tx, op) },
		dumpKeys(q.Keys),
	})
}

func (s *OTBStore) add(k structKind, st otbStruct) uint32 {
	s.structs = append(s.structs, st)
	s.kinds = append(s.kinds, k)
	return uint32(len(s.structs) - 1)
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

// opMutates is the one read/write classification of op codes: opMutates[c]
// reports whether executing c can change a structure's state. It decides
// what the durable path logs and what the multi-version store may serve from
// a snapshot (TestOpMutatesMatchesBehaviour holds it to the implementations).
var opMutates = [numOpCodes]bool{OpAdd: true, OpRemove: true, OpPut: true, OpDelete: true, OpRemoveMin: true}

// mutating reports whether any op of the batch changes state. Codes out of
// range count as reads: validateOps rejects them before anything executes.
func mutating(ops []Op) bool {
	for _, op := range ops {
		if op.Code < numOpCodes && opMutates[op.Code] {
			return true
		}
	}
	return false
}

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
	b := execPool.Get().(*execBody)
	b.s, b.ops, b.res = s, ops, res
	err := otb.AtomicCtx(ctx, nil, b.fn)
	b.s, b.ops, b.res = nil, nil, nil
	execPool.Put(b)
	return err
}

// execBody is one Exec's transaction body. It is pooled together with its
// func value, so that an Exec allocates nothing: a closure over ops and
// res would be one heap object per transaction.
type execBody struct {
	s   *OTBStore
	ops []Op
	res []OpResult
	fn  func(*otb.Tx) // b.run, made once
}

var execPool = sync.Pool{New: func() any {
	b := &execBody{}
	b.fn = b.run
	return b
}}

func (b *execBody) run(tx *otb.Tx) {
	for i, op := range b.ops {
		b.res[i] = b.s.structs[op.Struct].apply(tx, op)
	}
}
