package conc

import (
	"testing"

	"repro/internal/lincheck"
	"repro/internal/mem"
)

// TestLazySkipTallTowersUnderStaleHeight checks histories of fresh lists,
// whose live height climbs from 1 while the history runs: writers link
// towers taller than the published height while other goroutines search
// from the height they read before, and Cover the levels above it. Every
// history must be linearizable (run it under -race).
func TestLazySkipTallTowersUnderStaleHeight(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	raised := 0
	for r := range rounds {
		var s *LazySkipList
		cfg := lincheck.DefaultConfig(int64(100 + r))
		cfg.Name = "conc/lazy-skip-height"
		cfg.Keys, cfg.Ops, cfg.AddPct, cfg.RemovePct = 64, 100, 60, 20
		lincheck.StressSet(t, cfg, func() lincheck.Set { s = NewLazySkipList(); return s })
		if s.core.Height() > 2 {
			raised++
		}
	}
	if raised == 0 {
		t.Fatalf("no history of %d raised the live height above 2", rounds)
	}
}

// TestCoverSearchesAboveStaleHeight: a search reads height 1; then a
// tower for a smaller key is linked on level 1, the height rising first.
// Covering level 1 must search it from the head and stop past that tower,
// not take the head's successor, which would link a new level-1 tower out
// of key order.
func TestCoverSearchesAboveStaleHeight(t *testing.T) {
	var c SkipCore
	c.Init()
	tail := c.Head.Next(0).Load()
	var p Path
	if found := c.Find(20, &p); found != -1 || p.Levels != 1 {
		t.Fatalf("Find(20) on an empty list: found %d, %d levels; want -1, 1", found, p.Levels)
	}
	x := mem.NewTower(5, 1)
	x.Next(0).Store(tail)
	x.Next(1).Store(tail)
	c.Raise(1)
	c.Head.Next(0).Store(x)
	c.Head.Next(1).Store(x)
	x.SetLinked()

	c.Cover(&p, 1)
	if p.Levels != 2 || p.Preds[1] != x || p.Succs[1] != tail {
		t.Fatalf("Cover to level 1: %d levels, pred key %d, succ key %d; want 2 levels, 5 → tail",
			p.Levels, p.Preds[1].Key, p.Succs[1].Key)
	}
	if p.Preds[0] != c.Head {
		t.Error("Cover rewrote level 0, which the search had filled")
	}
	if h := c.Height(); h != 2 {
		t.Errorf("height %d after linking a 2-level tower, want 2", h)
	}
}
