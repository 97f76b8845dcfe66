package txnet

import (
	"context"

	"repro/internal/mvotb"
)

// MVOTBStore serves the multi-version runtime's structures: a set (index 0)
// and a map (index 1). They are OTB structures, so updating batches, request
// validation and DumpOps are an OTBStore registry's; what this type adds is
// the routing of batches that only read — every op a Contains or Get — onto
// one never-abort snapshot transaction. A read-heavy wire workload therefore
// gets the multi-version payoff (no validation, no retries) without any
// protocol change: the client cannot tell which path served it.
type MVOTBStore struct {
	reg OTBStore
	rt  *mvotb.Runtime
	set *mvotb.Set
	m   *mvotb.Map
}

// NewMVOTBStore builds a store over a fresh runtime.
func NewMVOTBStore() *MVOTBStore {
	rt := mvotb.New(mvotb.Options{})
	s := &MVOTBStore{rt: rt, set: rt.NewSet(256), m: rt.NewMap(256)}
	s.reg.AddSet(s.set)
	s.reg.AddMap(s.m)
	return s
}

// Stop halts the runtime's background version GC.
func (s *MVOTBStore) Stop() { s.rt.Stop() }

// NumStructs implements Store.
func (s *MVOTBStore) NumStructs() int { return s.reg.NumStructs() }

// DumpOps implements DurableStore.
func (s *MVOTBStore) DumpOps(emit func(Op)) { s.reg.DumpOps(emit) }

// Exec implements Store.
func (s *MVOTBStore) Exec(ctx context.Context, ops []Op, res []OpResult) error {
	if mutating(ops) {
		return s.reg.Exec(ctx, ops, res)
	}
	if err := validateOps(s.reg.kinds, ops); err != nil {
		return err
	}
	// The legal non-mutating codes on a set and a map are Contains and Get,
	// both one snapshot lookup (Contains on the map drops the value).
	return s.rt.ReadOnlyCtx(ctx, func(x *mvotb.STx) {
		for i, op := range ops {
			if op.Struct == 0 {
				res[i] = OpResult{OK: s.set.SnapContains(x, op.Key)}
				continue
			}
			v, ok := s.m.SnapGet(x, op.Key)
			if op.Code != OpGet {
				v = 0
			}
			res[i] = OpResult{Out: v, OK: ok}
		}
	})
}
