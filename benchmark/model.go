package main

import (
	"fmt"

	"repro/internal/txnet"
)

// model is what one connection knows must be true of the store, kept from
// the replies it has seen. Every reply is checked against it as it arrives,
// and after a window the store's dump must equal the connections' models
// put together.
//
// For a point workload the connection owns its keys, so the model is exact:
// present/val say what each key holds. For a multi workload the keys are
// shared, so the model counts this connection's successful inserts and
// removes per key and sums the PQ keys it added and took; the verifier adds
// the connections up.
type model struct {
	spec *Spec

	present []bool
	val     []uint64

	inserts, removes []int32
	pqAdds, pqTakes  int64
	pqSum            uint64 // keys added minus keys taken, mod 2^64
}

func newModel(spec *Spec) *model {
	m := &model{spec: spec}
	if spec.Shape == "point" {
		m.present = make([]bool, spec.KeyRange)
		m.val = make([]uint64, spec.KeyRange)
	} else {
		m.inserts = make([]int32, spec.KeyRange)
		m.removes = make([]int32, spec.KeyRange)
	}
	return m
}

// check compares one transaction's results with the model and applies its
// effects.
func (m *model) check(ops []txnet.Op, res []txnet.OpResult) error {
	if len(res) != len(ops) {
		return fmt.Errorf("%d results for %d ops", len(res), len(ops))
	}
	if m.spec.Shape == "point" {
		for i, op := range ops {
			if err := m.checkPoint(op, res[i]); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < len(ops); i++ {
		op, r := ops[i], res[i]
		switch {
		case op.Struct == structPQ && op.Code == txnet.OpAdd:
			if !r.OK {
				return fmt.Errorf("pq add of fresh key %d refused", op.Key)
			}
			m.pqAdds++
			m.pqSum += uint64(op.Key)
		case op.Struct == structPQ:
			if r.OK {
				m.pqTakes++
				m.pqSum -= r.Out
			}
		default:
			// Set and map ops come in pairs on one key and must agree:
			// write transactions always change both structures together.
			mr := res[i+1]
			if r.OK != mr.OK {
				return fmt.Errorf("key %d: set %s=%v but map %s=%v", op.Key, op.Code, r.OK, ops[i+1].Code, mr.OK)
			}
			switch op.Code {
			case txnet.OpContains:
				if mr.OK && mr.Out != mapVal(op.Key) {
					return fmt.Errorf("key %d: map holds %d, want %d", op.Key, mr.Out, mapVal(op.Key))
				}
			case txnet.OpAdd:
				if r.OK {
					m.inserts[op.Key]++
				}
			case txnet.OpRemove:
				if r.OK {
					m.removes[op.Key]++
				}
			}
			i++
		}
	}
	return nil
}

func (m *model) checkPoint(op txnet.Op, r txnet.OpResult) error {
	had := m.present[op.Key]
	switch op.Code {
	case txnet.OpContains, txnet.OpGet:
		if r.OK != had || (had && op.Code == txnet.OpGet && r.Out != m.val[op.Key]) {
			return fmt.Errorf("%s(%d) = (%d,%v), model has (%d,%v)", op.Code, op.Key, r.Out, r.OK, m.val[op.Key], had)
		}
	case txnet.OpAdd, txnet.OpPut:
		if r.OK == had {
			return fmt.Errorf("%s(%d) created=%v, model had it=%v", op.Code, op.Key, r.OK, had)
		}
		m.present[op.Key], m.val[op.Key] = true, op.Val
	case txnet.OpRemove, txnet.OpDelete:
		if r.OK != had {
			return fmt.Errorf("%s(%d) = %v, model had it=%v", op.Code, op.Key, r.OK, had)
		}
		m.present[op.Key] = false
	}
	return nil
}

// verifyDump checks that dump — the ops that rebuild a store, as
// OTBStore.DumpOps emits them — describes exactly the state the models
// imply. preload is the multi workloads' initial state (nil for point).
func verifyDump(spec *Spec, dump, preload []txnet.Op, models []*model) error {
	want := [3]map[int64]uint64{{}, {}, {}}
	var pqCount int64
	var pqSum uint64
	if spec.Shape == "point" {
		for _, m := range models {
			for k, p := range m.present {
				if p {
					want[spec.Struct][int64(k)] = m.val[k]
				}
			}
		}
	} else {
		live := make([]int32, spec.KeyRange)
		for _, op := range preload {
			switch op.Struct {
			case structSet:
				live[op.Key]++
			case structPQ:
				pqCount++
				pqSum += uint64(op.Key)
			}
		}
		for _, m := range models {
			for k := range live {
				live[k] += m.inserts[k] - m.removes[k]
			}
			pqCount += m.pqAdds - m.pqTakes
			pqSum += m.pqSum
		}
		for k, n := range live {
			switch n {
			case 0:
			case 1:
				want[structSet][int64(k)] = 0
				want[structMap][int64(k)] = mapVal(int64(k))
			default:
				return fmt.Errorf("key %d: successful inserts minus removes = %d", k, n)
			}
		}
	}
	got := [3]map[int64]uint64{{}, {}, {}}
	for _, op := range dump {
		if op.Struct > structPQ {
			return fmt.Errorf("dump addresses structure %d", op.Struct)
		}
		if _, dup := got[op.Struct][op.Key]; dup {
			return fmt.Errorf("dump lists structure %d key %d twice", op.Struct, op.Key)
		}
		got[op.Struct][op.Key] = op.Val
	}
	for st := structSet; st <= structMap; st++ {
		if len(got[st]) != len(want[st]) {
			return fmt.Errorf("structure %d holds %d keys, models say %d", st, len(got[st]), len(want[st]))
		}
		for k, v := range want[st] {
			if gv, ok := got[st][k]; !ok || gv != v {
				return fmt.Errorf("structure %d key %d: store has (%d,%v), models say %d", st, k, gv, ok, v)
			}
		}
	}
	var gotSum uint64
	for k := range got[structPQ] {
		gotSum += uint64(k)
	}
	if int64(len(got[structPQ])) != pqCount || gotSum != pqSum {
		return fmt.Errorf("pq holds %d keys (sum %d), successful adds minus takes say %d (sum %d)",
			len(got[structPQ]), gotSum, pqCount, pqSum)
	}
	return nil
}
