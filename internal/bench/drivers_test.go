package bench_test

import (
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/boosting"
	"repro/internal/conc"
	"repro/internal/mvotb"
	"repro/internal/otb"
	"repro/internal/race"
)

// TestTxDriverAllocFree pins the generic transactional driver at zero
// allocations per transaction: the pooled body closes over its run once, so
// neither the driver nor the runtimes' pooled descriptors allocate in the
// steady state. The multi-version driver is checked on both of its routes.
func TestTxDriverAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("race-mode sync.Pool drops Puts at random; pooled paths cannot be allocation-free")
	}
	rt := mvotb.New(mvotb.Options{GCInterval: time.Hour})
	drivers := map[string]bench.SetDriver{
		"otb":      bench.NewOTBDriver(otb.NewListSet()),
		"boosting": bench.NewBoostedDriver(boosting.NewSet(conc.NewLazyList(), 64)),
		"mvotb":    bench.NewMVOTBDriver(rt, rt.NewSet(64)),
	}
	reads := []bench.SetOp{{Kind: bench.OpContains, Key: 3}, {Kind: bench.OpContains, Key: 4}}
	// An updating batch that installs nothing (the key is present), so the
	// multi-version updater route is measured without needing a sweep.
	mixed := []bench.SetOp{{Kind: bench.OpContains, Key: 3}, {Kind: bench.OpAdd, Key: 4}}
	for name, d := range drivers {
		d.RunTx([]bench.SetOp{{Kind: bench.OpAdd, Key: 4}})
		for route, ops := range map[string][]bench.SetOp{"reads": reads, "mixed": mixed} {
			for i := 0; i < 200; i++ {
				d.RunTx(ops)
			}
			if allocs := testing.AllocsPerRun(1000, func() { d.RunTx(ops) }); allocs > 0 {
				t.Errorf("%s driver, %s batch: %.2f allocs/tx, want 0", name, route, allocs)
			}
		}
		d.Stop()
	}
}
