package mvotb_test

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/chaos/leak"
	"repro/internal/integrate"
	"repro/internal/lincheck"
	"repro/internal/mvotb"
	"repro/internal/otb"
)

// What the runtime being an otb.Datastructure newly makes possible: one
// optimistic transaction over a single-version OTB structure and a
// multi-version one. Each test runs under both drivers of that interface —
// standalone otb.Atomic (PreCommit → ValidateWithLocks → OnCommit →
// PostCommit) and the OTB-NOrec integration context, which validates with
// ValidateWithoutLocks and skips PreCommit, so the runtime's OnCommit has to
// take the bucket locks snapshot readers synchronize on.

// mixedDriver is how one driver runs a body as one transaction.
type mixedDriver struct {
	name       string
	atomically func(body func(*otb.Tx))
}

func mixedDrivers() []mixedDriver {
	norec := integrate.NewOTBNOrec()
	return []mixedDriver{
		{"otb.Atomic", func(body func(*otb.Tx)) { otb.Atomic(nil, body) }},
		{"OTB-NOrec", func(body func(*otb.Tx)) { norec.Atomic(func(ic *integrate.Ctx) { body(ic.Sem()) }) }},
	}
}

// TestMixedOTBAndMVOTBPairInvariant: writers move tokens between an
// otb.SkipSet and an mvotb.Map in one transaction (token i is key i, in
// exactly one of the two; the map also binds mirror key 100+i exactly while
// the token is in the skip set, so the invariant is visible from the map
// alone). OTB readers assert the cross-structure invariant, snapshot readers
// the map-only one: a token is never in both places, nor in neither.
func TestMixedOTBAndMVOTBPairInvariant(t *testing.T) {
	const tokens, mirror = 4, 100
	for _, d := range mixedDrivers() {
		atomically := d.atomically
		t.Run(d.name, func(t *testing.T) {
			defer leak.Check(t)()
			rt := mvotb.New(mvotb.Options{})
			defer rt.Stop()
			skip := otb.NewSkipSet()
			m := rt.NewMap(8) // few buckets: tokens and mirrors share locks
			atomically(func(tx *otb.Tx) {
				for k := int64(0); k < tokens; k++ {
					skip.Add(tx, k)
					m.Put(tx, mirror+k, 0)
				}
			})

			var stop atomic.Bool
			var writers, readers sync.WaitGroup
			for w := 0; w < 2; w++ {
				writers.Add(1)
				go func() {
					defer writers.Done()
					rng := rand.New(rand.NewPCG(uint64(w+1), 0x5eed))
					for i := 0; i < 1500; i++ {
						k := rng.Int64N(tokens)
						atomically(func(tx *otb.Tx) {
							if skip.Contains(tx, k) {
								skip.Remove(tx, k)
								m.Put(tx, k, uint64(i))
								m.Delete(tx, mirror+k)
							} else {
								m.Delete(tx, k)
								skip.Add(tx, k)
								m.Put(tx, mirror+k, uint64(i))
							}
						})
					}
				}()
			}
			for r := 0; r < 2; r++ {
				readers.Add(2)
				go func() { // OTB reader: the committed attempt's view
					defer readers.Done()
					for k := int64(0); !stop.Load(); k = (k + 1) % tokens {
						var inSkip, inMap, mirrored bool
						// The skip set is read last: OTB-NOrec does not validate a
						// read-only commit, and a SkipSet read entry is logged
						// after the post-validation that may have moved the
						// context's snapshot (ROADMAP item 1) — the map entries
						// before it make any such move over this token abort.
						atomically(func(tx *otb.Tx) {
							inMap = m.ContainsKey(tx, k)
							mirrored = m.ContainsKey(tx, mirror+k)
							inSkip = skip.Contains(tx, k)
						})
						if inSkip == inMap || mirrored != inSkip {
							t.Errorf("OTB reader: token %d skip=%v map=%v mirror=%v", k, inSkip, inMap, mirrored)
							return
						}
					}
				}()
				go func() { // snapshot reader
					defer readers.Done()
					for k := int64(0); !stop.Load(); k = (k + 1) % tokens {
						var inMap, mirrored bool
						rt.ReadOnly(func(x *mvotb.STx) {
							inMap = m.SnapContains(x, k)
							mirrored = m.SnapContains(x, mirror+k)
						})
						if inMap == mirrored {
							t.Errorf("snapshot reader: token %d map=%v mirror=%v", k, inMap, mirrored)
							return
						}
					}
				}()
			}
			writers.Wait()
			stop.Store(true)
			readers.Wait()
		})
	}
}

// twoTables is one attempt's view of a set split over two tables of one
// runtime: even keys in a Set, odd keys in a Map (bound to 1 while present).
type twoTables struct {
	tx *otb.Tx
	s  *mvotb.Set
	m  *mvotb.Map
}

func (v twoTables) Add(k int64) bool {
	if k&1 == 0 {
		return v.s.Add(v.tx, k)
	}
	return v.m.Put(v.tx, k, 1)
}

func (v twoTables) Remove(k int64) bool {
	if k&1 == 0 {
		return v.s.Remove(v.tx, k)
	}
	return v.m.Delete(v.tx, k)
}

func (v twoTables) Contains(k int64) bool {
	if k&1 == 0 {
		return v.s.Contains(v.tx, k)
	}
	return v.m.ContainsKey(v.tx, k)
}

// TestOpacityMVOTBTwoTablesTxns puts multi-operation transactions over two
// tables of one runtime under the opacity checker (seeded like every
// lincheck run), driven both ways. The single-version OTB structures are
// left out on purpose: under OTB-NOrec they fail this checker on their own
// (ROADMAP item 1), which would mask what is tested here — the runtime's
// hooks.
func TestOpacityMVOTBTwoTablesTxns(t *testing.T) {
	for i, d := range mixedDrivers() {
		atomically := d.atomically
		t.Run(d.name, func(t *testing.T) {
			rt := newRuntime(t)
			s, m := rt.NewSet(16), rt.NewMap(16)
			cfg := lincheck.DefaultSTMConfig(int64(25 + i))
			cfg.Name = "mvotb/two-tables-" + d.name
			cfg.Cells = 8
			if testing.Short() {
				cfg = cfg.Scaled(2)
			}
			lincheck.StressTxnSet(t, cfg, func(th int, body func(lincheck.Set)) {
				atomically(func(tx *otb.Tx) { body(twoTables{tx, s, m}) })
			})
		})
	}
}
