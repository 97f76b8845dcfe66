package bench

import (
	"fmt"
	"io"
	"math/rand/v2"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/rtc"
	"repro/internal/stamp"
	"repro/internal/stm"
	"repro/internal/stm/norec"
	"repro/internal/stm/ringsw"
	"repro/internal/stm/tl2"
	"repro/internal/stmds"
)

// chapter5Drivers builds the four series of the Chapter 5 microbenchmarks
// over a fresh structure from mkSet.
func chapter5Drivers(mkSet func() stmSet) []func() SetDriver {
	return []func() SetDriver{
		func() SetDriver { return NewSTMDriver("RingSW", ringsw.New(), mkSet()) },
		func() SetDriver { return NewSTMDriver("NOrec", norec.New(), mkSet()) },
		func() SetDriver { return NewSTMDriver("TL2", tl2.New(), mkSet()) },
		func() SetDriver {
			return NewSTMDriver("RTC", rtc.New(rtc.Options{Secondaries: 1}), mkSet())
		},
	}
}

// Fig55 reproduces Figure 5.5: red-black tree with 64K elements at 50% and
// 80% reads.
func Fig55(cfg Config) Figure {
	mixes := []setMix{
		{"50pct reads", 50, 1},
		{"80pct reads", 20, 1},
	}
	mkSet := func() stmSet { return RBAsSet(stmds.NewRBTree(1 << 21)) }
	return setFigure(cfg, "fig5.5", "red-black tree, 64K elements",
		64*1024, mixes, chapter5Drivers(mkSet))
}

// Fig56 reproduces Figure 5.6's cache-miss comparison using the portable
// proxy (failed CAS + lock-spin iterations per committed transaction) on a
// large (64K) and a small (64) red-black tree, NOrec vs RTC.
func Fig56(cfg Config) Figure {
	fig := Figure{ID: "fig5.6", Title: "lock contention events per transaction (cache-miss proxy)",
		XLabel: "threads"}
	for _, sub := range []struct {
		name string
		size int
	}{{"large tree (64K)", 64 * 1024}, {"small tree (64)", 64}} {
		sp := SubPlot{Name: sub.name, YLabel: "events/tx"}
		mk := []func() (string, stm.Algorithm){
			func() (string, stm.Algorithm) { return "NOrec", norec.New() },
			func() (string, stm.Algorithm) { return "RTC", rtc.New(rtc.Options{Secondaries: 1}) },
		}
		wl := SetWorkload{InitialSize: sub.size, KeyRange: int64(sub.size) * 8, WritePct: 50, OpsPerTx: 1}
		for _, mkAlg := range mk {
			var s Series
			for _, th := range cfg.Threads {
				name, alg := mkAlg()
				d := NewSTMDriver(name, alg, RBAsSet(stmds.NewRBTree(1<<21)))
				s.Name = name
				wl.Populate(d)
				alg.Counters().Reset()
				tput := func() float64 {
					gens := make([]func(*rand.Rand) []SetOp, th)
					for i := range gens {
						gens[i] = wl.NewSetWorker(i)
					}
					return Throughput(cfg, th, func(id int, rng *rand.Rand) {
						d.RunTx(gens[id](rng))
					})
				}()
				casf, spins := alg.Counters().Snapshot()
				txs := tput * cfg.Measure.Seconds()
				y := 0.0
				if txs > 0 {
					y = float64(casf+spins) / txs
				}
				d.Stop()
				s.Points = append(s.Points, Point{X: th, Y: y})
			}
			sp.Series = append(sp.Series, s)
		}
		fig.SubPlots = append(fig.SubPlots, sp)
	}
	return fig
}

// HashMapAsSet adapts a HashMap's Put/Get/Delete to the generic set
// interface used by the workload drivers.
func HashMapAsSet(m *stmds.HashMap) interface {
	Add(stm.Tx, int64) bool
	Remove(stm.Tx, int64) bool
	Contains(stm.Tx, int64) bool
} {
	return hashMapAsSet{m}
}

// hashMapAsSet adapts HashMap's Put/Get/Delete to the set interface.
type hashMapAsSet struct{ m *stmds.HashMap }

func (a hashMapAsSet) Add(tx stm.Tx, k int64) bool      { return a.m.Put(tx, k, uint64(k)) }
func (a hashMapAsSet) Remove(tx stm.Tx, k int64) bool   { return a.m.Delete(tx, k) }
func (a hashMapAsSet) Contains(tx stm.Tx, k int64) bool { _, ok := a.m.Get(tx, k); return ok }

// Fig57 reproduces Figure 5.7: hash map with 10,000 elements over 256
// buckets at 50% and 80% reads.
func Fig57(cfg Config) Figure {
	mixes := []setMix{
		{"50pct reads", 50, 1},
		{"80pct reads", 20, 1},
	}
	mkSet := func() stmSet { return hashMapAsSet{stmds.NewHashMap(256, 1<<21)} }
	return setFigure(cfg, "fig5.7", "hash map, 10K elements / 256 buckets",
		10000, mixes, chapter5Drivers(mkSet))
}

// Fig58 reproduces Figure 5.8: doubly linked list with 500 elements at 50%
// and 98% reads (RTC's worst case: tiny commit relative to traversal).
func Fig58(cfg Config) Figure {
	mixes := []setMix{
		{"50pct reads", 50, 1},
		{"98pct reads", 2, 1},
	}
	mkSet := func() stmSet { return stmds.NewDList(1 << 21) }
	return setFigure(cfg, "fig5.8", "doubly linked list, 500 elements",
		500, mixes, chapter5Drivers(mkSet))
}

// Fig59 reproduces Figure 5.9: the multiprogramming experiment — the same
// red-black tree workload with goroutine counts far beyond the host's
// cores (on this container every point is multiprogrammed; the paper's
// 24-core cap corresponds to sweeping past GOMAXPROCS).
func Fig59(cfg Config) Figure {
	over := cfg
	over.Threads = []int{1, 2, 4, 8, 16, 24, 32, 48, 64}
	mixes := []setMix{
		{"50pct reads", 50, 1},
		{"98pct reads", 2, 1},
	}
	mkSet := func() stmSet { return RBAsSet(stmds.NewRBTree(1 << 21)) }
	return setFigure(over, "fig5.9", "red-black tree, 64K elements, threads beyond cores",
		64*1024, mixes, chapter5Drivers(mkSet))
}

// Fig510 reproduces Figure 5.10: execution time of the STAMP profiles.
// Lower is better.
func Fig510(cfg Config) Figure {
	return stampExecTime(cfg, "fig5.10", []func() stm.Algorithm{
		func() stm.Algorithm { return ringsw.New() },
		func() stm.Algorithm { return norec.New() },
		func() stm.Algorithm { return tl2.New() },
		func() stm.Algorithm { return rtc.New(rtc.Options{Secondaries: 1}) },
	})
}

// stampExecTime runs every STAMP profile for a fixed transaction count and
// reports wall seconds per thread count.
func stampExecTime(cfg Config, id string, algs []func() stm.Algorithm) Figure {
	fig := Figure{ID: id, Title: "STAMP profiles: execution time (seconds, lower is better)",
		XLabel: "threads"}
	totalTxs := 20000
	if cfg.Measure.Milliseconds() < 500 {
		totalTxs = 2000 // quick mode
	}
	for _, app := range stamp.Apps() {
		sp := SubPlot{Name: app.Name, YLabel: "seconds"}
		for _, mkAlg := range algs {
			var s Series
			for _, th := range cfg.Threads {
				alg := mkAlg()
				s.Name = alg.Name()
				w := stamp.NewWorkload(app)
				var sink atomic.Uint64
				dur := TimedRun(th, totalTxs, func(id int, rng *rand.Rand) {
					sink.Add(w.RunTx(alg, rng))
				})
				alg.Stop()
				s.Points = append(s.Points, Point{X: th, Y: dur.Seconds()})
			}
			sp.Series = append(sp.Series, s)
		}
		fig.SubPlots = append(fig.SubPlots, sp)
	}
	return fig
}

// Fig511 reproduces Figure 5.11: the effect of the number of dependency
// detector servers (0, 1, 2) on a disjoint-write workload with commit
// phases long enough to open DD windows.
func Fig511(cfg Config) Figure {
	fig := Figure{ID: "fig5.11", Title: "RTC dependency detectors: disjoint writer throughput",
		XLabel: "threads"}
	sp := SubPlot{Name: "disjoint 8-cell writers", YLabel: "tx/sec"}
	for _, secs := range []int{0, 1, 2} {
		var s Series
		s.Name = fmt.Sprintf("RTC-%dsec", secs)
		for _, th := range cfg.Threads {
			alg := rtc.New(rtc.Options{Secondaries: secs, DDThreshold: 2})
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

// Table51 reproduces Table 5.1: NOrec's commit-time ratio on the STAMP
// profiles — %trans (share of in-transaction time) and %total (share of
// total CPU time including the non-transactional work).
func Table51(cfg Config, w io.Writer) {
	threads := []int{8, 16, 32, 48}
	totalTxs := 20000
	if cfg.Measure.Milliseconds() < 500 {
		totalTxs = 2000
	}
	fmt.Fprintf(w, "== table5.1: NOrec commit-time ratio on STAMP profiles ==\n\n")
	fmt.Fprintf(w, "%-10s", "app")
	for _, th := range threads {
		fmt.Fprintf(w, "  %8s %8s", fmt.Sprintf("%dt/tr%%", th), "tot%")
	}
	fmt.Fprintln(w)
	for _, app := range stamp.Apps() {
		fmt.Fprintf(w, "%-10s", app.Name)
		for _, th := range threads {
			alg := norec.New()
			prof := &stm.Profile{}
			alg.SetProfile(prof)
			wl := stamp.NewWorkload(app)
			var sink atomic.Uint64
			dur := TimedRun(th, totalTxs, func(id int, rng *rand.Rand) {
				sink.Add(wl.RunTx(alg, rng))
			})
			snap := prof.Snapshot()
			trans := 0.0
			if snap.TotalNS > 0 {
				trans = 100 * float64(snap.CommitNS) / float64(snap.TotalNS)
			}
			cpuNS := dur.Nanoseconds() * int64(th)
			total := 0.0
			if cpuNS > 0 {
				total = 100 * float64(snap.CommitNS) / float64(cpuNS)
			}
			alg.Stop()
			fmt.Fprintf(w, "  %8.1f %8.1f", trans, total)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}
