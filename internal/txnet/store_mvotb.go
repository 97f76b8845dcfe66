package txnet

import (
	"context"

	"repro/internal/mvotb"
)

// MVOTBStore serves the multi-version runtime's structures: a set (index 0)
// and a map (index 1). Batches that only read — every op is a Contains or
// Get — execute as one never-abort snapshot transaction; anything else runs
// the updater path. A read-heavy wire workload therefore gets the
// multi-version payoff (no validation, no retries) without any protocol
// change: the client cannot tell which path served it.
type MVOTBStore struct {
	rt  *mvotb.Runtime
	set *mvotb.Set
	m   *mvotb.Map
}

// NewMVOTBStore builds a store over a fresh runtime.
func NewMVOTBStore() *MVOTBStore {
	rt := mvotb.New(mvotb.Options{})
	return &MVOTBStore{rt: rt, set: rt.NewSet(256), m: rt.NewMap(256)}
}

// Stop halts the runtime's background version GC.
func (s *MVOTBStore) Stop() { s.rt.Stop() }

// NumStructs implements Store.
func (s *MVOTBStore) NumStructs() int { return len(setAndMap) }

// readOnlyBatch reports whether every op resolves through the snapshot
// path.
func readOnlyBatch(ops []Op) bool {
	for _, op := range ops {
		if op.Code != OpContains && op.Code != OpGet {
			return false
		}
	}
	return true
}

// Exec implements Store.
func (s *MVOTBStore) Exec(ctx context.Context, ops []Op, res []OpResult) error {
	if err := validateOps(setAndMap, ops); err != nil {
		return err
	}
	if readOnlyBatch(ops) {
		return s.rt.ReadOnlyCtx(ctx, func(x *mvotb.STx) {
			for i, op := range ops {
				if op.Struct == 0 {
					res[i] = OpResult{OK: s.set.SnapContains(x, op.Key)}
					continue
				}
				if op.Code == OpGet {
					v, ok := s.m.SnapGet(x, op.Key)
					res[i] = OpResult{Out: v, OK: ok}
				} else {
					res[i] = OpResult{OK: s.m.SnapContains(x, op.Key)}
				}
			}
		})
	}
	return s.rt.AtomicCtx(ctx, func(tx *mvotb.Tx) {
		for i, op := range ops {
			if op.Struct == 0 {
				switch op.Code {
				case OpAdd:
					res[i] = OpResult{OK: s.set.Add(tx, op.Key)}
				case OpRemove:
					res[i] = OpResult{OK: s.set.Remove(tx, op.Key)}
				default:
					res[i] = OpResult{OK: s.set.Contains(tx, op.Key)}
				}
				continue
			}
			switch op.Code {
			case OpPut:
				res[i] = OpResult{OK: s.m.Put(tx, op.Key, op.Val)}
			case OpGet:
				v, ok := s.m.Get(tx, op.Key)
				res[i] = OpResult{Out: v, OK: ok}
			case OpDelete:
				res[i] = OpResult{OK: s.m.Delete(tx, op.Key)}
			default:
				res[i] = OpResult{OK: s.m.ContainsKey(tx, op.Key)}
			}
		}
	})
}
