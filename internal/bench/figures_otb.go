package bench

import (
	"math/rand/v2"

	"repro/internal/boosting"
	"repro/internal/conc"
	"repro/internal/otb"
	"repro/internal/trace"
)

// setMix is one workload panel of the Chapter 3 set figures.
type setMix struct {
	name     string
	writePct int
	opsPerTx int
}

// chapter3Mixes are the four workloads of Figures 3.3–3.5.
func chapter3Mixes() []setMix {
	return []setMix{
		{"read-only", 0, 1},
		{"read-intensive", 20, 1},
		{"write-intensive", 80, 1},
		{"high-contention", 80, 5},
	}
}

// runSetPoint measures one (driver, workload, threads) point in
// transactions per second. The run carries pprof labels naming the driver
// and the panel (via trace.Do) so CPU profiles can be split by algorithm
// and workload; the labels are inherited by Throughput's worker goroutines.
func runSetPoint(cfg Config, threads int, panel string, wl SetWorkload, d SetDriver) float64 {
	wl.Populate(d)
	gens := make([]func(*rand.Rand) []SetOp, threads)
	for i := range gens {
		gens[i] = wl.NewSetWorker(i)
	}
	var tput float64
	trace.Do(d.Name(), panel, func() {
		tput = Throughput(cfg, threads, func(id int, rng *rand.Rand) {
			d.RunTx(gens[id](rng))
		})
	})
	return tput
}

// setFigure sweeps the given driver factories over the workloads.
func setFigure(cfg Config, id, title string, size int, mixes []setMix,
	drivers []func() SetDriver) Figure {
	fig := Figure{ID: id, Title: title, XLabel: "threads"}
	for _, mix := range mixes {
		wl := SetWorkload{
			InitialSize: size,
			KeyRange:    int64(size) * 8,
			WritePct:    mix.writePct,
			OpsPerTx:    mix.opsPerTx,
		}
		sp := SubPlot{Name: mix.name, YLabel: "tx/sec", Series: make([]Series, len(drivers))}
		for _, th := range cfg.Threads {
			sp.addPoints(interleave(cfg, th, len(drivers), func(i int, c Config) (string, float64) {
				d := drivers[i]()
				defer d.Stop()
				return d.Name(), runSetPoint(c, th, mix.name, wl, d)
			}))
		}
		fig.SubPlots = append(fig.SubPlots, sp)
	}
	return fig
}

// Fig33 reproduces Figure 3.3: linked-list set, 512 elements, four
// workloads; Lazy vs PessimisticBoosted vs OptimisticBoosted.
func Fig33(cfg Config) Figure {
	drivers := []func() SetDriver{
		func() SetDriver { return NewLazyDriver(conc.NewLazyList()) },
		func() SetDriver { return NewBoostedDriver(boosting.NewSet(conc.NewLazyList(), 4096)) },
		func() SetDriver { return NewOTBDriver(otb.NewListSet()) },
	}
	return setFigure(cfg, "fig3.3", "linked-list set, 512 elements", 512, chapter3Mixes(), drivers)
}

// Fig34 reproduces Figure 3.4: skip-list set, 512 elements.
func Fig34(cfg Config) Figure {
	drivers := []func() SetDriver{
		func() SetDriver { return NewLazyDriver(conc.NewLazySkipList()) },
		func() SetDriver { return NewBoostedDriver(boosting.NewSet(conc.NewLazySkipList(), 4096)) },
		func() SetDriver { return NewOTBDriver(otb.NewSkipSet()) },
	}
	return setFigure(cfg, "fig3.4", "skip-list set, 512 elements", 512, chapter3Mixes(), drivers)
}

// Fig35 reproduces Figure 3.5: skip-list set, 64K elements (the
// low-contention regime where OTB's advantage peaks).
func Fig35(cfg Config) Figure {
	drivers := []func() SetDriver{
		func() SetDriver { return NewLazyDriver(conc.NewLazySkipList()) },
		func() SetDriver { return NewBoostedDriver(boosting.NewSet(conc.NewLazySkipList(), 1<<16)) },
		func() SetDriver { return NewOTBDriver(otb.NewSkipSet()) },
	}
	return setFigure(cfg, "fig3.5", "skip-list set, 64K elements", 64*1024, chapter3Mixes(), drivers)
}

// runPQPoint measures one priority-queue point of panel: 50% add / 50%
// removeMin, labelled as runSetPoint's are.
func runPQPoint(cfg Config, threads, size, opsPerTx int, panel string, d PQDriver) float64 {
	seed := make([]PQOp, 0, size)
	rng := rand.New(rand.NewPCG(42, 42))
	for i := 0; i < size; i++ {
		seed = append(seed, PQOp{Kind: PQAdd, Key: rng.Int64N(1 << 40)})
		if len(seed) == 64 {
			d.RunTx(seed)
			seed = seed[:0]
		}
	}
	if len(seed) > 0 {
		d.RunTx(seed)
	}
	var tput float64
	trace.Do(d.Name(), panel, func() {
		tput = Throughput(cfg, threads, func(id int, rng *rand.Rand) {
			ops := make([]PQOp, opsPerTx)
			for i := range ops {
				if rng.IntN(2) == 0 {
					ops[i] = PQOp{Kind: PQAdd, Key: rng.Int64N(1 << 40)}
				} else {
					ops[i] = PQOp{Kind: PQRemoveMin}
				}
			}
			d.RunTx(ops)
		})
	})
	return tput
}

// pqFigure sweeps queue drivers over transaction sizes 1 and 5.
func pqFigure(cfg Config, id, title string, size int, drivers []func() PQDriver) Figure {
	fig := Figure{ID: id, Title: title, XLabel: "threads"}
	for _, txSize := range []int{1, 5} {
		sp := SubPlot{Name: sizeName(txSize), YLabel: "tx/sec", Series: make([]Series, len(drivers))}
		for _, th := range cfg.Threads {
			sp.addPoints(interleave(cfg, th, len(drivers), func(i int, c Config) (string, float64) {
				d := drivers[i]()
				defer d.Stop()
				return d.Name(), runPQPoint(c, th, size, txSize, sp.Name, d)
			}))
		}
		fig.SubPlots = append(fig.SubPlots, sp)
	}
	return fig
}

func sizeName(n int) string {
	if n == 1 {
		return "tx-size-1"
	}
	return "tx-size-5"
}

// Fig36 reproduces Figure 3.6: heap-based priority queue, 512 elements,
// 50% add / 50% removeMin; pessimistic vs semi-optimistic boosting.
func Fig36(cfg Config) Figure {
	drivers := []func() PQDriver{
		func() PQDriver { return NewBoostedPQDriver(boosting.NewPQ()) },
		func() PQDriver { return NewOTBHeapPQDriver(otb.NewHeapPQ()) },
	}
	return pqFigure(cfg, "fig3.6", "heap-based priority queue, 512 elements", 512, drivers)
}

// Fig37 reproduces Figure 3.7: skip-list-based priority queue, 512
// elements; pessimistic boosting over a concurrent skip queue vs the fully
// optimistic OTB queue.
func Fig37(cfg Config) Figure {
	drivers := []func() PQDriver{
		func() PQDriver {
			return NewBoostedPQDriver(boosting.NewPQOver(boosting.SkipPQAdapter{Q: conc.NewSkipPQ()}))
		},
		func() PQDriver { return NewOTBSkipPQDriver(otb.NewSkipPQ()) },
	}
	return pqFigure(cfg, "fig3.7", "skip-list-based priority queue, 512 elements", 512, drivers)
}
