package txnet

import (
	"context"
	"slices"
	"testing"
)

// TestOpMutatesMatchesBehaviour holds the one read/write classification to
// the implementations: for every op code, opMutates[c] must hold exactly
// when executing c against a non-empty structure can change what DumpOps
// emits. A code that mutated without being classified so would be applied
// but never logged (and served from a snapshot by the multi-version store);
// the reverse would only bloat the log.
func TestOpMutatesMatchesBehaviour(t *testing.T) {
	const present, fresh = 7, 8
	mv := NewMVOTBStore()
	defer mv.Stop()
	stores := []struct {
		name  string
		st    DurableStore
		kinds []structKind
	}{
		{"otb", NewOTBStore(), []structKind{kindSet, kindMap, kindPQ}},
		{"mvotb", mv, mv.reg.kinds},
	}
	ctx := context.Background()
	res := make([]OpResult, 1)
	for c := OpCode(0); c < numOpCodes; c++ {
		changed, ran := false, false
		for _, s := range stores {
			for i, kind := range s.kinds {
				if !opAllowed[kind][c] {
					continue
				}
				// Non-empty: one entry per structure, present (bound to 1 in maps).
				seed := Op{Code: OpAdd, Struct: uint32(i), Key: present}
				if kind == kindMap {
					seed = Op{Code: OpPut, Struct: uint32(i), Key: present, Val: 1}
				}
				for _, key := range []int64{present, fresh} {
					if err := s.st.Exec(ctx, []Op{seed}, res); err != nil {
						t.Fatalf("%s: seeding structure %d: %v", s.name, i, err)
					}
					before := dumpOf(s.st)
					if err := s.st.Exec(ctx, []Op{{Code: c, Struct: uint32(i), Key: key, Val: 2}}, res); err != nil {
						t.Fatalf("%s: %s on structure %d: %v", s.name, c, i, err)
					}
					ran = true
					after := dumpOf(s.st)
					if !slices.Equal(before, after) {
						changed = true
					}
					// Back to the seeded state for the next probe.
					for _, op := range after {
						undo := Op{Code: OpRemove, Struct: op.Struct, Key: op.Key}
						switch s.kinds[op.Struct] {
						case kindMap:
							undo.Code = OpDelete
						case kindPQ:
							undo.Code = OpRemoveMin
						}
						if err := s.st.Exec(ctx, []Op{undo}, res); err != nil {
							t.Fatalf("%s: clearing: %v", s.name, err)
						}
					}
				}
			}
		}
		if !ran {
			t.Errorf("%s is legal on no structure kind", c)
		}
		if changed != opMutates[c] {
			t.Errorf("opMutates[%s] = %v, but executing it changed a dump: %v", c, opMutates[c], changed)
		}
		if got := mutating([]Op{{Code: OpContains}, {Code: c}}); got != opMutates[c] {
			t.Errorf("mutating(batch with %s) = %v, want %v", c, got, opMutates[c])
		}
	}
	if mutating([]Op{{Code: numOpCodes}, {Code: 0xff}}) {
		t.Error("out-of-range codes classified as mutating (validateOps rejects them; they must not index the table)")
	}
}
