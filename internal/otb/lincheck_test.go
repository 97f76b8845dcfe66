package otb_test

import (
	"testing"

	"repro/internal/integrate"
	"repro/internal/lincheck"
	"repro/internal/otb"
)

// Linearizability and opacity checks for the optimistically boosted
// structures. Single-operation transactions are checked as linearizable
// operations; multi-operation transactions are checked for opacity against
// the transactional set specification, which also constrains what aborted
// attempts were allowed to observe.

// atomicSet runs each abstract operation in its own OTB transaction.
type atomicSet struct {
	s interface {
		Add(*otb.Tx, int64) bool
		Remove(*otb.Tx, int64) bool
		Contains(*otb.Tx, int64) bool
	}
}

func (a atomicSet) Add(k int64) (ok bool) {
	otb.Atomic(nil, func(tx *otb.Tx) { ok = a.s.Add(tx, k) })
	return
}

func (a atomicSet) Remove(k int64) (ok bool) {
	otb.Atomic(nil, func(tx *otb.Tx) { ok = a.s.Remove(tx, k) })
	return
}

func (a atomicSet) Contains(k int64) (ok bool) {
	otb.Atomic(nil, func(tx *otb.Tx) { ok = a.s.Contains(tx, k) })
	return
}

func TestLincheckOTBSets(t *testing.T) {
	mks := map[string]func() lincheck.Set{
		"listset": func() lincheck.Set { return atomicSet{otb.NewListSet()} },
		"skipset": func() lincheck.Set { return atomicSet{otb.NewSkipSet()} },
		"hashset": func() lincheck.Set { return atomicSet{otb.NewHashSet(16)} },
	}
	for name, mk := range mks {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := lincheck.DefaultConfig(11)
			cfg.Name = "otb/" + name
			if testing.Short() {
				cfg = cfg.Scaled(4)
			}
			lincheck.StressSet(t, cfg, mk)
		})
	}
}

// txView is one attempt's transactional view of an OTB set.
type txView struct {
	tx *otb.Tx
	s  *otb.ListSet
}

func (v txView) Add(k int64) bool      { return v.s.Add(v.tx, k) }
func (v txView) Remove(k int64) bool   { return v.s.Remove(v.tx, k) }
func (v txView) Contains(k int64) bool { return v.s.Contains(v.tx, k) }

// TestOpacityOTBListSetTxns checks multi-operation OTB transactions for
// opacity: every committed transaction's operations must take effect
// atomically at one point consistent with real-time order, and aborted
// attempts must have observed a consistent state.
func TestOpacityOTBListSetTxns(t *testing.T) {
	s := otb.NewListSet()
	cfg := lincheck.DefaultSTMConfig(12)
	cfg.Name = "otb/listset-txns"
	cfg.Cells = 8 // key range
	if testing.Short() {
		cfg = cfg.Scaled(2)
	}
	lincheck.StressTxnSet(t, cfg, func(th int, body func(lincheck.Set)) {
		otb.Atomic(nil, func(tx *otb.Tx) { body(txView{tx, s}) })
	})
}

// skipView is one attempt's view of a set split over the two skip-list
// structures: even keys in a SkipSet, odd keys in a Map (bound to 1 while
// present), so one transaction reads and writes two commit counters.
type skipView struct {
	tx *otb.Tx
	s  *otb.SkipSet
	m  *otb.Map
}

func (v skipView) Add(k int64) bool {
	if k&1 == 0 {
		return v.s.Add(v.tx, k)
	}
	return v.m.Put(v.tx, k, 1)
}

func (v skipView) Remove(k int64) bool {
	if k&1 == 0 {
		return v.s.Remove(v.tx, k)
	}
	return v.m.Delete(v.tx, k)
}

func (v skipView) Contains(k int64) bool {
	if k&1 == 0 {
		return v.s.Contains(v.tx, k)
	}
	return v.m.ContainsKey(v.tx, k)
}

// TestOpacityOTBSkipTxns is TestOpacityOTBListSetTxns over the skip lists,
// whose post-validation and write-free commits skip a list no commit has
// touched since the read set was last known valid, and whose ops return
// only what their own post-validation proved held at one instant with the
// read set. It runs standalone and under both integration contexts, whose
// validators do not skip but do see each op's new entries.
func TestOpacityOTBSkipTxns(t *testing.T) {
	norec, tl2 := integrate.NewOTBNOrec(), integrate.NewOTBTL2()
	for i, d := range []struct {
		name   string
		atomic func(func(*otb.Tx))
	}{
		{"standalone", func(fn func(*otb.Tx)) { otb.Atomic(nil, fn) }},
		{"OTB-NOrec", func(fn func(*otb.Tx)) { norec.Atomic(func(c *integrate.Ctx) { fn(c.Sem()) }) }},
		{"OTB-TL2", func(fn func(*otb.Tx)) { tl2.Atomic(func(c *integrate.Ctx) { fn(c.Sem()) }) }},
	} {
		t.Run(d.name, func(t *testing.T) {
			s, m := otb.NewSkipSet(), otb.NewMap()
			cfg := lincheck.DefaultSTMConfig(int64(13 + i))
			cfg.Name = "otb/skip-txns-" + d.name
			cfg.Cells = 8
			if testing.Short() {
				cfg = cfg.Scaled(2)
			}
			lincheck.StressTxnSet(t, cfg, func(th int, body func(lincheck.Set)) {
				d.atomic(func(tx *otb.Tx) { body(skipView{tx, s, m}) })
			})
		})
	}
}
