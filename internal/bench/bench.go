// Package bench is the experiment harness: timed throughput runs, thread
// sweeps, and the figure/table formatting that regenerates every plot of
// the paper's evaluation sections. cmd/reproduce drives it from the command
// line; the repository-root benchmarks drive it through testing.B.
package bench

import (
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Config controls the measurement methodology. The paper warms up 2s and
// measures 5s per point; Full uses shorter windows that are stable on a
// container, and Quick is for tests and smoke runs.
type Config struct {
	Threads []int         // goroutine counts to sweep
	Warmup  time.Duration // per-point warmup
	Measure time.Duration // per-point measurement window
	// Rounds splits each point of the set and queue figures into this many
	// interleaved rounds (see interleave); 0 or 1 measures each point once.
	Rounds int
}

// Quick is the configuration used by tests: tiny windows, small sweep.
func Quick() Config {
	return Config{Threads: []int{1, 2, 4}, Warmup: 10 * time.Millisecond, Measure: 40 * time.Millisecond}
}

// Full is the default configuration of cmd/reproduce.
func Full() Config {
	return Config{
		Threads: []int{1, 2, 4, 8, 16, 32, 48, 64},
		Warmup:  200 * time.Millisecond,
		Measure: time.Second,
		Rounds:  5,
	}
}

// interleave measures one point of each of n series in cfg.Rounds rounds:
// round r runs every series in turn, each for Warmup/Rounds and then
// Measure/Rounds, so that a disturbance of the host lands in one round of
// every series rather than in the whole window of one. measure(i, c) sets
// series i up afresh, runs it under c and returns its name and value. The
// points are at x; each keeps its rounds, and Y is their mean.
func interleave(cfg Config, x, n int, measure func(i int, c Config) (string, float64)) ([]string, []Point) {
	k := max(cfg.Rounds, 1)
	c := cfg
	c.Warmup /= time.Duration(k)
	c.Measure /= time.Duration(k)
	names, pts := make([]string, n), make([]Point, n)
	for i := range pts {
		pts[i].X = x
	}
	for range k {
		for i := range n {
			var y float64
			names[i], y = measure(i, c)
			pts[i].Y += y / float64(k)
			pts[i].Rounds = append(pts[i].Rounds, y)
		}
	}
	return names, pts
}

// MemStats summarizes the allocation and garbage-collection behaviour of one
// measurement window, from runtime.ReadMemStats deltas. The per-transaction
// ratios use the transactions counted in the same window, so a pooled
// zero-allocation runtime reports ~0 regardless of throughput.
type MemStats struct {
	Txs             uint64  // transactions counted in the window
	AllocsPerTx     float64 // heap objects allocated per transaction
	AllocBytesPerTx float64 // heap bytes allocated per transaction
	GCPauseTotalNS  uint64  // total stop-the-world pause in the window
	NumGC           uint32  // GC cycles completed in the window
}

// Throughput runs threads goroutines, each looping work(threadID, rng), for
// cfg.Warmup + cfg.Measure and returns committed operations per second
// during the measurement window. work is called once per transaction.
func Throughput(cfg Config, threads int, work func(id int, rng *rand.Rand)) float64 {
	tput, _ := ThroughputMem(cfg, threads, work)
	return tput
}

// ThroughputMem is Throughput plus allocation and GC accounting over the
// measurement window. The memstats snapshots bracket the window (the second
// is taken after the workers stop, so the delta slightly overcounts the
// drain between measure-end and quiescence — bias toward reporting, never
// hiding, allocation).
func ThroughputMem(cfg Config, threads int, work func(id int, rng *rand.Rand)) (float64, MemStats) {
	var (
		stop      atomic.Bool
		measuring atomic.Bool
		count     atomic.Uint64
		wg        sync.WaitGroup
	)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(id+1), 0x5eed))
			for !stop.Load() {
				work(id, rng)
				if measuring.Load() {
					count.Add(1)
				}
			}
		}(t)
	}
	time.Sleep(cfg.Warmup)
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	measuring.Store(true)
	start := time.Now()
	time.Sleep(cfg.Measure)
	elapsed := time.Since(start)
	stop.Store(true)
	wg.Wait()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	txs := count.Load()
	mem := MemStats{
		Txs:            txs,
		GCPauseTotalNS: m1.PauseTotalNs - m0.PauseTotalNs,
		NumGC:          m1.NumGC - m0.NumGC,
	}
	if txs > 0 {
		mem.AllocsPerTx = float64(m1.Mallocs-m0.Mallocs) / float64(txs)
		mem.AllocBytesPerTx = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(txs)
	}
	return float64(txs) / elapsed.Seconds(), mem
}

// TimedRun executes totalTxs transactions spread over threads goroutines
// and returns the wall time (the STAMP "execution time" methodology).
func TimedRun(threads, totalTxs int, work func(id int, rng *rand.Rand)) time.Duration {
	var wg sync.WaitGroup
	var remaining atomic.Int64
	remaining.Store(int64(totalTxs))
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(id+1), 0xabcd))
			for remaining.Add(-1) >= 0 {
				work(id, rng)
			}
		}(t)
	}
	wg.Wait()
	return time.Since(start)
}

// Point is one measurement: X is the thread count (or other sweep value),
// Y the metric.
type Point struct {
	X int
	Y float64
	// Rounds holds the values of a point measured in interleaved rounds
	// (interleave), of which Y is the mean.
	Rounds []float64
}

// Series is one line of a plot.
type Series struct {
	Name   string
	Points []Point
}

// SubPlot is one panel of a figure (e.g. one workload mix).
type SubPlot struct {
	Name   string
	YLabel string
	Series []Series
}

// addPoints appends the points interleave measured, one to each series,
// naming the series.
func (sp *SubPlot) addPoints(names []string, pts []Point) {
	for i := range sp.Series {
		sp.Series[i].Name = names[i]
		sp.Series[i].Points = append(sp.Series[i].Points, pts[i])
	}
}

// Figure is a reproduced paper figure or table.
type Figure struct {
	ID       string // e.g. "fig3.3"
	Title    string
	XLabel   string
	SubPlots []SubPlot
}

// Print renders the figure as aligned text tables, one per subplot, with
// one row per X value and one column per series — the same rows/series the
// paper plots.
func (f *Figure) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	for _, sp := range f.SubPlots {
		fmt.Fprintf(w, "\n-- %s (%s) --\n", sp.Name, sp.YLabel)
		fmt.Fprintf(w, "%-10s", f.XLabel)
		for _, s := range sp.Series {
			fmt.Fprintf(w, "%16s", s.Name)
		}
		fmt.Fprintln(w)
		if len(sp.Series) == 0 {
			continue
		}
		for i := range sp.Series[0].Points {
			fmt.Fprintf(w, "%-10d", sp.Series[0].Points[i].X)
			for _, s := range sp.Series {
				if i < len(s.Points) {
					fmt.Fprintf(w, "%16.3f", s.Points[i].Y)
				} else {
					fmt.Fprintf(w, "%16s", "-")
				}
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
}
