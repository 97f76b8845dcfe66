package bench

import (
	"fmt"

	"math/rand/v2"

	"repro/internal/integrate"
	"repro/internal/mem"
	"repro/internal/otb"
	"repro/internal/rtc"
	"repro/internal/stm"
)

// AblValidation measures the paper's per-operation validation optimization
// (Section 3.2.1): optimized (presentOnly / bottom-level entries) vs full
// adjacency validation for every read entry, on both OTB sets.
func AblValidation(cfg Config) Figure {
	fig := Figure{ID: "abl.validation",
		Title:  "ablation: OTB validation optimization (optimized vs full adjacency)",
		XLabel: "threads"}
	subplots := []struct {
		name    string
		size    int
		drivers []func() SetDriver
	}{
		{"linked-list 512", 512, []func() SetDriver{
			func() SetDriver { return NewOTBDriver(otb.NewListSet()) },
			func() SetDriver { return namedOTB("FullValidation", otb.NewListSetFullValidation()) },
		}},
		{"skip-list 4K", 4096, []func() SetDriver{
			func() SetDriver { return NewOTBDriver(otb.NewSkipSet()) },
			func() SetDriver { return namedOTB("FullValidation", otb.NewSkipSetFullValidation()) },
		}},
	}
	for _, sub := range subplots {
		wl := SetWorkload{InitialSize: sub.size, KeyRange: int64(sub.size) * 8, WritePct: 20, OpsPerTx: 4}
		sp := SubPlot{Name: sub.name, YLabel: "tx/sec"}
		for _, mk := range sub.drivers {
			var s Series
			for _, th := range cfg.Threads {
				d := mk()
				s.Name = d.Name()
				y := runSetPoint(cfg, th, sp.Name, wl, d)
				d.Stop()
				s.Points = append(s.Points, Point{X: th, Y: y})
			}
			sp.Series = append(sp.Series, s)
		}
		fig.SubPlots = append(fig.SubPlots, sp)
	}
	return fig
}

// namedOTB wraps an OTB set driver with an explicit series name.
func namedOTB(name string, set otbSet) SetDriver {
	return &renamedDriver{SetDriver: NewOTBDriver(set), name: name}
}

type renamedDriver struct {
	SetDriver
	name string
}

func (d *renamedDriver) Name() string { return d.name }

// AblLocks measures the OTB-NOrec lock-granularity optimization: skipping
// semantic locks under the global lock vs acquiring them anyway.
func AblLocks(cfg Config) Figure {
	fig := Figure{ID: "abl.locks",
		Title:  "ablation: OTB-NOrec semantic locks (skipped vs acquired under the global lock)",
		XLabel: "threads"}
	wl := SetWorkload{InitialSize: 512, KeyRange: 4096, WritePct: 50, OpsPerTx: 4}
	sp := SubPlot{Name: "linked-list 512, 50% writes, 4 ops/tx", YLabel: "tx/sec"}
	variants := []struct {
		name string
		mk   func() integrate.Algorithm
	}{
		{"SkipSemanticLocks", func() integrate.Algorithm { return integrate.NewOTBNOrec() }},
		{"AcquireSemanticLocks", func() integrate.Algorithm { return integrate.NewOTBNOrecSemanticLocks() }},
	}
	for _, v := range variants {
		var s Series
		s.Name = v.name
		for _, th := range cfg.Threads {
			alg := v.mk()
			d := NewIntegratedDriver(alg, otb.NewListSet())
			y := runSetPoint(cfg, th, sp.Name, wl, d)
			d.Stop()
			s.Points = append(s.Points, Point{X: th, Y: y})
		}
		sp.Series = append(sp.Series, s)
	}
	fig.SubPlots = append(fig.SubPlots, sp)
	return fig
}

// AblDDThreshold sweeps RTC's dependency-detection threshold: too low and
// short commits waste a window; too high and the detector never engages.
func AblDDThreshold(cfg Config) Figure {
	fig := Figure{ID: "abl.ddthreshold",
		Title:  "ablation: RTC dependency-detection write-set threshold",
		XLabel: "threads"}
	sp := SubPlot{Name: "disjoint 8-cell writers", YLabel: "tx/sec"}
	for _, thr := range []int{1, 4, 16, 64} {
		var s Series
		s.Name = fmt.Sprintf("threshold-%d", thr)
		for _, th := range cfg.Threads {
			alg := rtc.New(rtc.Options{Secondaries: 1, DDThreshold: thr})
			const cellsPer = 8
			banks := make([][]*mem.Cell, th)
			for w := range banks {
				banks[w] = make([]*mem.Cell, cellsPer)
				for i := range banks[w] {
					banks[w][i] = mem.NewCell(0)
				}
			}
			y := Throughput(cfg, th, func(id int, rng *rand.Rand) {
				mine := banks[id]
				alg.Atomic(func(tx stm.Tx) {
					for _, c := range mine {
						tx.Write(c, tx.Read(c)+1)
					}
				})
			})
			alg.Stop()
			s.Points = append(s.Points, Point{X: th, Y: y})
		}
		sp.Series = append(sp.Series, s)
	}
	fig.SubPlots = append(fig.SubPlots, sp)
	return fig
}

// AblFairness compares RTC's slot-order sweep against the contention-aware
// server (serve the most-aborted request first, Section 7.1.3) on a
// hotspot workload where all transactions conflict.
func AblFairness(cfg Config) Figure {
	fig := Figure{ID: "abl.fairness",
		Title:  "ablation: RTC server scheduling (slot order vs most-starved first)",
		XLabel: "threads"}
	sp := SubPlot{Name: "hotspot counter + private work", YLabel: "tx/sec"}
	for _, fair := range []bool{false, true} {
		var s Series
		if fair {
			s.Name = "most-starved-first"
		} else {
			s.Name = "slot-order"
		}
		for _, th := range cfg.Threads {
			alg := rtc.New(rtc.Options{Secondaries: 0, FairScheduling: fair})
			hot := mem.NewCell(0)
			priv := make([]*mem.Cell, th)
			for i := range priv {
				priv[i] = mem.NewCell(0)
			}
			y := Throughput(cfg, th, func(id int, rng *rand.Rand) {
				alg.Atomic(func(tx stm.Tx) {
					tx.Write(hot, tx.Read(hot)+1)
					tx.Write(priv[id], tx.Read(priv[id])+1)
				})
			})
			alg.Stop()
			s.Points = append(s.Points, Point{X: th, Y: y})
		}
		sp.Series = append(sp.Series, s)
	}
	fig.SubPlots = append(fig.SubPlots, sp)
	return fig
}
