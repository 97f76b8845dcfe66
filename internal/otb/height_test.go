package otb

import (
	"testing"

	"repro/internal/lincheck"
)

// txSet runs each set operation in its own transaction.
type txSet struct{ s *SkipSet }

func (a txSet) Add(k int64) (ok bool) {
	Atomic(nil, func(tx *Tx) { ok = a.s.Add(tx, k) })
	return ok
}

func (a txSet) Remove(k int64) (ok bool) {
	Atomic(nil, func(tx *Tx) { ok = a.s.Remove(tx, k) })
	return ok
}

func (a txSet) Contains(k int64) (ok bool) {
	Atomic(nil, func(tx *Tx) { ok = a.s.Contains(tx, k) })
	return ok
}

// TestSkipSetTallTowersUnderStaleHeight is the OTB skip list's twin of
// conc's TestLazySkipTallTowersUnderStaleHeight: on fresh sets the live
// height climbs while the history runs, so commits link towers taller than
// the height that concurrent operations searched from, and those
// operations' entries Cover the levels above it. Every history must be
// linearizable (run it under -race).
func TestSkipSetTallTowersUnderStaleHeight(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	raised := 0
	for r := range rounds {
		var s *SkipSet
		cfg := lincheck.DefaultConfig(int64(200 + r))
		cfg.Name = "otb/skipset-height"
		cfg.Keys, cfg.Ops, cfg.AddPct, cfg.RemovePct = 64, 100, 60, 20
		lincheck.StressSet(t, cfg, func() lincheck.Set { s = NewSkipSet(); return txSet{s} })
		if s.core.Height() > 2 {
			raised++
		}
	}
	if raised == 0 {
		t.Fatalf("no history of %d raised the live height above 2", rounds)
	}
}
