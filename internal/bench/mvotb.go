package bench

import (
	"context"
	"sync"

	"repro/internal/mvotb"
	"repro/internal/otb"
)

// mvotbDriver runs set transactions on the multi-version runtime. Updating
// batches are ordinary OTB transactions over the multi-version set (the
// embedded driver); what this type adds is the routing of a batch with only
// Contains operations onto the never-abort snapshot path. That mirrors how a
// real caller uses MVOTB — the read-mostly benchmark mixes are exactly where
// the snapshot path pays.
type mvotbDriver struct {
	*txDriver[*otb.Tx]
	rt     *mvotb.Runtime
	roPool sync.Pool // *txRun[*mvotb.STx]
}

// NewMVOTBDriver wraps a multi-version set. Stop stops the runtime (and its
// background version GC).
func NewMVOTBDriver(rt *mvotb.Runtime, set *mvotb.Set) SetDriver {
	d := &mvotbDriver{txDriver: newTxDriver("MVOTB", otbSet(set), otbAtomic, rt.Stop), rt: rt}
	d.roPool.New = func() any {
		r := &txRun[*mvotb.STx]{}
		r.fn = func(x *mvotb.STx) {
			for _, op := range r.ops {
				set.SnapContains(x, op.Key)
			}
		}
		return r
	}
	return d
}

func (d *mvotbDriver) RunTx(ops []SetOp) { d.RunTxCtx(nil, ops) }

// allContains reports whether the batch is pure membership queries.
func allContains(ops []SetOp) bool {
	for _, op := range ops {
		if op.Kind != OpContains {
			return false
		}
	}
	return true
}

func (d *mvotbDriver) RunTxCtx(ctx context.Context, ops []SetOp) error {
	if !allContains(ops) {
		return d.txDriver.RunTxCtx(ctx, ops)
	}
	r := d.roPool.Get().(*txRun[*mvotb.STx])
	r.ops = ops
	err := d.rt.ReadOnlyCtx(ctx, r.fn)
	r.ops = nil
	d.roPool.Put(r)
	return err
}
