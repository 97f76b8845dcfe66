package bench

import (
	"context"

	"repro/internal/boosting"
	"repro/internal/otb"
)

// PQOpKind identifies a priority-queue operation.
type PQOpKind int8

// Priority queue operation kinds.
const (
	PQAdd PQOpKind = iota
	PQRemoveMin
)

// PQOp is one generated queue operation.
type PQOp struct {
	Kind PQOpKind
	Key  int64
}

// PQDriver executes a batch of queue operations as one transaction.
type PQDriver interface {
	Name() string
	RunTx(ops []PQOp)
	Stop()
}

// pqDriver is the one PQDriver: a queue's two operations over transaction
// handle T, and how the hosting runtime runs a body as one transaction.
type pqDriver[T any] struct {
	name      string
	atomic    func(ctx context.Context, body func(T)) error
	add       func(T, int64)
	removeMin func(T) (int64, bool)
}

func (d *pqDriver[T]) Name() string { return d.name }
func (d *pqDriver[T]) Stop()        {}
func (d *pqDriver[T]) RunTx(ops []PQOp) {
	d.atomic(nil, func(tx T) {
		for _, op := range ops {
			if op.Kind == PQAdd {
				d.add(tx, op.Key)
			} else {
				d.removeMin(tx)
			}
		}
	})
}

// NewBoostedPQDriver wraps a pessimistically boosted queue.
func NewBoostedPQDriver(q *boosting.PQ) PQDriver {
	return &pqDriver[*boosting.Tx]{"PessimisticBoosted", boostedAtomic, q.Add, q.RemoveMin}
}

// NewOTBHeapPQDriver wraps the semi-optimistic heap queue.
func NewOTBHeapPQDriver(q *otb.HeapPQ) PQDriver {
	return &pqDriver[*otb.Tx]{"OptimisticBoosted", otbAtomic, q.Add, q.RemoveMin}
}

// NewOTBSkipPQDriver wraps the fully optimistic skip-list queue.
func NewOTBSkipPQDriver(q *otb.SkipPQ) PQDriver {
	return &pqDriver[*otb.Tx]{"OptimisticBoosted", otbAtomic,
		func(tx *otb.Tx, key int64) { q.Add(tx, key) }, q.RemoveMin}
}
