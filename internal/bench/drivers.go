package bench

import (
	"context"
	"math/rand/v2"
	"sync"

	"repro/internal/boosting"
	"repro/internal/integrate"
	"repro/internal/otb"
	"repro/internal/stm"
	"repro/internal/stmds"
)

// SetOpKind identifies a set operation in a generated transaction.
type SetOpKind int8

// Set operation kinds.
const (
	OpAdd SetOpKind = iota
	OpRemove
	OpContains
)

// SetOp is one generated set operation.
type SetOp struct {
	Kind SetOpKind
	Key  int64
}

// SetDriver executes a batch of set operations as one transaction on some
// implementation (lazy, boosted, OTB, pure STM, or integrated).
type SetDriver interface {
	Name() string
	// RunTx executes ops atomically (or, for the lazy baseline, merely
	// sequentially — it has no transactions, as the paper notes).
	RunTx(ops []SetOp)
	// RunTxCtx is RunTx observing ctx: a cancelled or expired context makes
	// the transaction give up (rolling back any attempt in flight) and
	// return the context's error instead of committing. A nil ctx never
	// cancels.
	RunTxCtx(ctx context.Context, ops []SetOp) error
	// Stop releases background resources.
	Stop()
}

// --- The drivers ---

// txSet is a set whose operations run inside a transaction with handle T.
type txSet[T any] interface {
	Add(T, int64) bool
	Remove(T, int64) bool
	Contains(T, int64) bool
}

// txDriver is the one SetDriver: a set over transaction handle T, and atomic
// — how the hosting runtime runs a body as one transaction. Every
// implementation (boosted, OTB, pure STM, integrated, multi-version, and the
// lazy baseline with its empty handle) is an instance.
type txDriver[T any] struct {
	name   string
	atomic func(ctx context.Context, body func(T)) error
	stop   func()
	pool   sync.Pool // *txRun[T]
}

// txRun is a pooled transaction body: the closure is created once per pooled
// object and captures the run, so the per-transaction path does not allocate
// a fresh closure over the op batch.
type txRun[T any] struct {
	ops []SetOp
	fn  func(T)
}

func newTxDriver[T any](name string, set txSet[T], atomic func(context.Context, func(T)) error, stop func()) *txDriver[T] {
	d := &txDriver[T]{name: name, atomic: atomic, stop: stop}
	d.pool.New = func() any {
		r := &txRun[T]{}
		r.fn = func(tx T) {
			for _, op := range r.ops {
				switch op.Kind {
				case OpAdd:
					set.Add(tx, op.Key)
				case OpRemove:
					set.Remove(tx, op.Key)
				default:
					set.Contains(tx, op.Key)
				}
			}
		}
		return r
	}
	return d
}

func (d *txDriver[T]) Name() string      { return d.name }
func (d *txDriver[T]) Stop()             { d.stop() }
func (d *txDriver[T]) RunTx(ops []SetOp) { d.RunTxCtx(nil, ops) }

func (d *txDriver[T]) RunTxCtx(ctx context.Context, ops []SetOp) error {
	r := d.pool.Get().(*txRun[T])
	r.ops = ops
	err := d.atomic(ctx, r.fn)
	r.ops = nil
	d.pool.Put(r)
	return err
}

func noStop() {}

// concSet abstracts the lazy sets.
type concSet interface {
	Add(int64) bool
	Remove(int64) bool
	Contains(int64) bool
}

// lazySet is a lazy concurrent set under the empty transaction handle.
type lazySet struct{ set concSet }

func (s lazySet) Add(_ struct{}, k int64) bool      { return s.set.Add(k) }
func (s lazySet) Remove(_ struct{}, k int64) bool   { return s.set.Remove(k) }
func (s lazySet) Contains(_ struct{}, k int64) bool { return s.set.Contains(k) }

// NewLazyDriver wraps a lazy concurrent set, the non-transactional upper
// bound: its "transaction" merely runs the batch sequentially (it has no
// transactions, as the paper notes), so there is nothing to abandon and it
// only refuses to start after cancellation.
func NewLazyDriver(set concSet) SetDriver {
	return newTxDriver("Lazy", lazySet{set}, func(ctx context.Context, body func(struct{})) error {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		body(struct{}{})
		return nil
	}, noStop)
}

func boostedAtomic(ctx context.Context, body func(*boosting.Tx)) error {
	return boosting.AtomicCtx(ctx, nil, nil, body)
}

// NewBoostedDriver wraps a pessimistically boosted set.
func NewBoostedDriver(set *boosting.Set) SetDriver {
	return newTxDriver("PessimisticBoosted", set, boostedAtomic, noStop)
}

// otbSet abstracts the OTB sets (and the multi-version one).
type otbSet = txSet[*otb.Tx]

func otbAtomic(ctx context.Context, body func(*otb.Tx)) error {
	return otb.AtomicCtx(ctx, nil, body)
}

// NewOTBDriver wraps an optimistically boosted set.
func NewOTBDriver(set otbSet) SetDriver {
	return newTxDriver("OptimisticBoosted", set, otbAtomic, noStop)
}

// stmSet abstracts the stmds set-like structures.
type stmSet = txSet[stm.Tx]

// rbAsSet adapts the red-black tree's Insert/Delete naming.
type rbAsSet struct{ t *stmds.RBTree }

// RBAsSet exposes an RBTree through the generic set interface.
func RBAsSet(t *stmds.RBTree) stmSet { return rbAsSet{t} }

func (a rbAsSet) Add(tx stm.Tx, k int64) bool      { return a.t.Insert(tx, k) }
func (a rbAsSet) Remove(tx stm.Tx, k int64) bool   { return a.t.Delete(tx, k) }
func (a rbAsSet) Contains(tx stm.Tx, k int64) bool { return a.t.Contains(tx, k) }

// NewSTMDriver runs set operations as transactions of alg over a pure-STM
// structure. An algorithm without a context-aware entry point only refuses
// to start after cancellation.
func NewSTMDriver(name string, alg stm.Algorithm, set stmSet) SetDriver {
	atomic := func(ctx context.Context, body func(stm.Tx)) error {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		alg.Atomic(body)
		return nil
	}
	if ac, ok := alg.(stm.AlgorithmCtx); ok {
		atomic = ac.AtomicCtx
	}
	return newTxDriver(name, set, atomic, alg.Stop)
}

// semSet runs an OTB set under an integration context's semantic
// transaction.
type semSet struct{ set otbSet }

func (s semSet) Add(ic *integrate.Ctx, k int64) bool      { return s.set.Add(ic.Sem(), k) }
func (s semSet) Remove(ic *integrate.Ctx, k int64) bool   { return s.set.Remove(ic.Sem(), k) }
func (s semSet) Contains(ic *integrate.Ctx, k int64) bool { return s.set.Contains(ic.Sem(), k) }

// NewIntegratedDriver runs set operations inside an OTB-NOrec / OTB-TL2
// context (Chapter 4).
func NewIntegratedDriver(alg integrate.Algorithm, set otbSet) SetDriver {
	return newTxDriver[*integrate.Ctx](alg.Name(), semSet{set}, alg.AtomicCtx, alg.Stop)
}

// SetWorkload generates the paper's set micro-benchmark mixes: WritePct
// percent of operations are writes, split evenly between adds of fresh keys
// and removes of keys this worker added earlier (so writes are mostly
// successful, as Section 3.3 requires), the rest are contains over the full
// range. Populated keys are even (multiples of the populate step) and
// worker-added keys are odd, so transient writes never erode the initial
// population and the structure size stays stable around InitialSize.
type SetWorkload struct {
	InitialSize int
	KeyRange    int64
	WritePct    int
	OpsPerTx    int
}

// workerState carries a worker's private queue of previously added keys.
type workerState struct {
	added []int64
	flip  bool
}

// NewSetWorker returns a per-worker transaction generator over the
// workload. Seed it by pre-populating the structure through Populate.
func (w SetWorkload) NewSetWorker(id int) func(rng *rand.Rand) []SetOp {
	st := &workerState{}
	ops := make([]SetOp, w.OpsPerTx)
	return func(rng *rand.Rand) []SetOp {
		for i := range ops {
			if rng.IntN(100) < w.WritePct {
				if st.flip && len(st.added) > 0 {
					last := len(st.added) - 1
					ops[i] = SetOp{Kind: OpRemove, Key: st.added[last]}
					st.added = st.added[:last]
				} else {
					k := rng.Int64N(w.KeyRange) | 1 // odd: disjoint from population
					ops[i] = SetOp{Kind: OpAdd, Key: k}
					st.added = append(st.added, k)
				}
				st.flip = !st.flip
			} else {
				ops[i] = SetOp{Kind: OpContains, Key: rng.Int64N(w.KeyRange)}
			}
		}
		return ops
	}
}

// Populate fills the structure to the workload's initial size with evenly
// spread even keys (single-threaded, before measurement).
func (w SetWorkload) Populate(d SetDriver) {
	step := w.KeyRange / int64(w.InitialSize)
	if step < 2 {
		step = 2
	}
	ops := make([]SetOp, 0, 64)
	for k := int64(0); k < int64(w.InitialSize); k++ {
		ops = append(ops, SetOp{Kind: OpAdd, Key: k * step})
		if len(ops) == 64 {
			d.RunTx(ops)
			ops = ops[:0]
		}
	}
	if len(ops) > 0 {
		d.RunTx(ops)
	}
}
