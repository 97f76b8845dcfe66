// Command benchmark is the repository's ruler: four closed-loop txstore
// workloads measured end to end, a traced second pass that attributes each
// request's time to the wire stages, and a fixed-work ladder that measures
// every layer (otb → txnet.store → txnet.wire → wal → txnet.durable) on its
// own through its exported API. See README.md beside this file.
//
//	bash benchmark/run.sh -seed 1                          # everything, as tables
//	bash benchmark/run.sh -seed 1 -selfcheck               # end-to-end twice, compared
//	bash benchmark/run.sh --workload net-set-point --seed 1 --seconds 26 --trace 0
//
// The last form is the one BENCHMARK.json names: one workload, one pass, and
// a one-line JSON result as the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// metric is one named number with its unit and the number of samples (or
// operations) behind it.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

type metrics []metric

func (ms *metrics) add(name string, value float64, unit string, n int) {
	*ms = append(*ms, metric{name, value, unit, n})
}

func (ms metrics) get(name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

func (ms metrics) print(title string) {
	fmt.Printf("## %s\n", title)
	for _, m := range ms {
		fmt.Printf("%-40s %16.4f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
}

// bounds is how far each end-to-end metric may worsen before a change counts
// as a regression, as a share of the parent's median. BENCHMARK.json states
// the same numbers; bench_test.go holds the two together. They are all the
// widest the contract allows: ten runs of one commit agree within 1-3 % in
// the host's quiet hours and spread 15 % in its worst (README, "Bounds"), and
// a bound has to hold in both. A gain or a loss smaller than that is decided
// by paired runs, not by this alarm.
var bounds = map[string]float64{
	"setup_s":       0.25,
	"tx_per_s":      0.25,
	"p50_us":        0.25,
	"read_p50_us":   0.25,
	"write_p50_us":  0.25,
	"cpu_us_per_tx": 0.25,
}

// lowerIsBetter is false only for throughput.
func lowerIsBetter(name string) bool { return name != "tx_per_s" }

// mustBeZero are the counters that read zero when nothing went wrong.
var mustBeZero = []string{
	"txnet.server.replays", "txnet.server.shed", "txnet.server.deadline", "txnet.server.aborted",
	"txnet.server.bad_requests", "txnet.client.resends", "txnet.client.reconnects", "txnet.client.overloads",
}

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds int
	quick   bool
	outDir  string
}

// sliceLen is the length of one slice of a measured window.
const sliceLen = 2 * time.Second

// shapes returns the end-to-end pass, and the two halves of the layer pass:
// -seconds cut into 2 s slices, of which a layer pass spends half untraced
// and half traced. The traced half follows the untraced one on the same
// instance, so it needs no ageing of its own.
func (c config) shapes(spec *Spec) (e2e, layerPlain, layerTraced shape) {
	if c.quick {
		q := shape{warmup: 200 * time.Millisecond, slices: 1, slice: time.Second}
		h := shape{warmup: 200 * time.Millisecond, slices: 1, slice: time.Second / 2}
		return q, h, h
	}
	warmup := time.Duration(spec.WarmupS) * time.Second
	n := max(int(time.Duration(c.seconds)*time.Second/sliceLen), 1)
	return shape{warmup: warmup, slices: n, slice: sliceLen},
		shape{warmup: warmup, slices: max(n/2, 1), slice: sliceLen},
		shape{warmup: time.Second, slices: max(n/2, 1), slice: sliceLen}
}

// setupsPerPause is how many times an end-to-end run sets the workload up
// again at each slice boundary of its window.
const setupsPerPause = 2

// outcome is one pass's verdict and numbers.
type outcome struct {
	metrics           metrics
	attempted, failed uint64
	err               error // correctness gate; nil = correct
}

// endToEnd measures what a user of the store sees, tracing off.
func endToEnd(spec *Spec, c config) outcome {
	sh, _, _ := c.shapes(spec)
	confine(spec.CPUs)
	defer confine(0)
	// Set-up is short (2 to 80 ms), so one reading is mostly noise, and the
	// noise comes in bursts: twenty-one set-ups in a row, half a second in
	// all, read 30-75 % slow together in seven runs of ten during one of the
	// host's bad stretches, while each of those runs still had a quiet 2 s
	// slice. So the set-ups are spread over the run like the slices: the
	// measured instance first, then at every slice boundary, while its
	// workers are parked, setupsPerPause more of a second instance that is
	// torn down at once; and like the slices the best reading is reported.
	var setups []float64
	var setupErr error
	timedSetUp := func() *instance {
		t0 := time.Now()
		inst, err := setUp(spec, c.seed, c.outDir, nil)
		if err != nil {
			if setupErr == nil {
				setupErr = fmt.Errorf("set-up: %w", err)
			}
			return nil
		}
		setups = append(setups, time.Since(t0).Seconds())
		return inst
	}
	inst := timedSetUp()
	if inst == nil {
		return outcome{err: setupErr}
	}
	r, err := inst.window(sh, false, func() {
		for i := 0; i < setupsPerPause; i++ {
			if probe := timedSetUp(); probe != nil {
				probe.tearDown()
			}
		}
	})
	if ferr := inst.finish(); err == nil {
		err = ferr
	}
	if err == nil {
		err = setupErr
	}
	if r == nil {
		return outcome{err: err}
	}
	o := outcome{attempted: r.attempted, failed: r.failed, err: err}
	o.metrics.add("setup_s", best(setups, false), "s", len(setups))
	o.metrics = append(o.metrics, r.endToEnd()...)
	o.gate(r.runCounters())
	return o
}

// endToEnd reports each metric's best slice: see best.
func (r *windowResult) endToEnd() metrics {
	var ms metrics
	ms.add("tx_per_s", best(r.txPerS, true), "1/s", r.nAll)
	ms.add("p50_us", best(r.p50, false), "us", r.nAll)
	ms.add("read_p50_us", best(r.readP50, false), "us", r.nRead)
	ms.add("write_p50_us", best(r.writeP50, false), "us", r.nWrite)
	ms.add("cpu_us_per_tx", best(r.cpuPerTx, false), "us", r.nAll)
	return ms
}

// runCounters names the counter deltas around one untraced window.
func (r *windowResult) runCounters() metrics {
	var ms metrics
	a, b := r.after, r.before
	n := int(r.committed)
	tx := float64(r.committed)
	count := func(name string, after, before uint64) { ms.add(name, float64(after-before), "count", n) }
	count("txnet.server.requests", a.srv.Requests, b.srv.Requests)
	count("txnet.server.commits", a.srv.Commits, b.srv.Commits)
	count("txnet.server.replays", a.srv.Replays, b.srv.Replays)
	count("txnet.server.shed", a.srv.Shed, b.srv.Shed)
	count("txnet.server.deadline", a.srv.Deadline, b.srv.Deadline)
	count("txnet.server.aborted", a.srv.Aborted, b.srv.Aborted)
	count("txnet.server.bad_requests", a.srv.BadRequests, b.srv.BadRequests)
	count("txnet.client.resends", a.cli.Resends, b.cli.Resends)
	count("txnet.client.reconnects", a.cli.Reconnects, b.cli.Reconnects)
	count("txnet.client.overloads", a.cli.Overloads, b.cli.Overloads)
	aborts, commits := float64(a.otbAbort-b.otbAbort), float64(a.otbCommit-b.otbCommit)
	ms.add("otb.abort_rate", ratio(aborts, aborts+commits), "ratio", int(aborts+commits))
	appends, fsyncs := float64(a.wal.Appends-b.wal.Appends), float64(a.wal.Fsyncs-b.wal.Fsyncs)
	ms.add("wal.appends", appends, "count", n)
	ms.add("wal.fsyncs", fsyncs, "count", n)
	ms.add("wal.appends_per_fsync", ratio(appends, fsyncs), "ratio", int(fsyncs))
	ms.add("wal.bytes_per_commit", ratio(float64(a.wal.AppendedBytes-b.wal.AppendedBytes), appends), "B", int(appends))
	count("wal.snapshots", a.wal.Snapshots, b.wal.Snapshots)
	ms.add("wal.dir_bytes_end", float64(r.walDirBytes), "B", 1)
	ms.add("client.p99_us", best(r.p99, false), "us", r.nAll)
	ms.add("client.write_p999_us", r.writeP999, "us", r.nWrite*r.sh.slices)
	ms.add("client.max_us", r.maxUS, "us", n)
	ms.add("slice.tx_per_s.spread", spread(r.txPerS), "ratio", r.sh.slices)
	ms.add("process.allocs_per_tx", ratio(float64(a.mem.Mallocs-b.mem.Mallocs), tx), "count", n)
	ms.add("process.alloc_bytes_per_tx", ratio(float64(a.mem.TotalAlloc-b.mem.TotalAlloc), tx), "B", n)
	ms.add("process.gc_pause_ms", float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs)/1e6, "ms", int(a.mem.NumGC-b.mem.NumGC))
	count("process.num_gc", uint64(a.mem.NumGC), uint64(b.mem.NumGC))
	ms.add("process.live_heap_mb", r.liveHeapMB, "MB", 1)
	ms.add("process.user_cpu_us_per_tx", ratio(a.user-b.user, tx), "us", n)
	ms.add("process.sys_cpu_us_per_tx", ratio(a.sys-b.sys, tx), "us", n)
	return ms
}

// stageMetrics names the traced window's per-stage breakdown. Means are
// over every traced request (a stage a request skipped counts as zero), so
// they add up to the mean round trip times sum_over_total; percentiles are
// over the requests that went through the stage.
func (r *windowResult) stageMetrics() metrics {
	var ms metrics
	var sum uint64
	for s := trace.Stage(0); s < trace.StageAck; s++ {
		sum += r.stageSum[s]
		ms.add("stage."+s.String()+".mean_us", ratio(float64(r.stageSum[s]), float64(r.committed))/1e3, "us", int(r.committed))
		ms.add("stage."+s.String()+".p50_us", percentile(r.stageNS[s], 0.50)/1e3, "us", len(r.stageNS[s]))
		ms.add("stage."+s.String()+".p99_us", percentile(r.stageNS[s], 0.99)/1e3, "us", len(r.stageNS[s]))
	}
	// The wire stage block cannot carry ack (the response is encoded before
	// it is written), so the client sees ack inside net. Its mean comes
	// from the server's own stage histogram.
	acks := r.after.ackCount - r.before.ackCount
	ms.add("stage.ack.mean_us", ratio((r.after.ackSumS-r.before.ackSumS)*1e6, acks), "us", int(acks))
	ms.add("stage.sum_over_total", ratio(float64(sum), float64(r.totalSum)), "ratio", int(r.committed))
	return ms
}

// gate fails an otherwise correct pass whose window saw a failed request or
// a counter that must read zero on a fault-free run.
func (o *outcome) gate(run metrics) {
	if o.err != nil {
		return
	}
	if o.failed > 0 {
		o.err = fmt.Errorf("failed_frac = %d/%d", o.failed, o.attempted)
	}
	for _, name := range mustBeZero {
		if v := run.get(name); v != 0 && o.err == nil {
			o.err = fmt.Errorf("%s = %v on a fault-free run", name, v)
		}
	}
}

// layers measures where the time goes: an untraced window for the counters,
// a traced one on the same instance for the stage breakdown, and the
// budget that sets the two against the ladder's independent measurements.
func layers(spec *Spec, c config, ladder metrics) outcome {
	_, plain, traced := c.shapes(spec)
	confine(spec.CPUs)
	defer confine(0)
	rec := newRecorder()
	defer func() {
		if err := rec.write(filepath.Join(c.outDir, spec.Name+".trace.json")); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing trace:", err)
		}
	}()
	inst, err := setUp(spec, c.seed, c.outDir, rec)
	if err != nil {
		return outcome{err: fmt.Errorf("set-up: %w", err)}
	}
	r, err := inst.window(plain, false, nil)
	var rt *windowResult
	if err == nil {
		rt, err = inst.window(traced, true, nil)
	}
	if ferr := inst.finish(); err == nil {
		err = ferr
	}
	if r == nil || rt == nil {
		return outcome{err: err}
	}
	o := outcome{attempted: r.attempted + rt.attempted, failed: r.failed + rt.failed, err: err}
	run := r.runCounters()
	o.metrics = append(o.metrics, run...)
	o.metrics = append(o.metrics, rt.stageMetrics()...)
	o.metrics.add("trace.overhead_frac", 1-ratio(best(rt.txPerS, true), best(r.txPerS, true)), "ratio", int(rt.committed))

	// The layer budget: independently measured layer costs must add up to
	// the end-to-end median. Which layers a request crosses follows from
	// the workload's declaration.
	measured := best(r.p50, false)
	var parts []float64
	if spec.Transport == "loopback" {
		parts = append(parts, ladder.get(fmt.Sprintf("txnet.wire.null_rtt_us_p50.%dc", spec.Conns)))
	}
	exec := "multi"
	if spec.Shape == "point" {
		exec = [...]string{"set", "map"}[spec.Struct]
	}
	parts = append(parts, ladder.get("txnet.store.otb.exec_ns."+exec)/1e3)
	switch spec.Fsync {
	case "":
	case "never":
		measured = best(r.writeP50, false)
		parts = append(parts, ladder.get("wal.append_ns.never")/1e3)
	default:
		measured = best(r.writeP50, false)
		parts = append(parts, ladder.get("wal.commit_us."+spec.Fsync+".2w"))
	}
	o.metrics.add("budget.gap_frac", gapFrac(measured, parts...), "ratio", r.nAll)

	o.gate(run)
	return o
}

// result is the driver's one-line result object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o outcome) result() result {
	r := result{Correct: o.err == nil, Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, m := range o.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[m.name] = metricValue{v, m.unit}
	}
	return r
}

func main() {
	var c config
	workload := flag.String("workload", "", "run this one workload and end with the one-line JSON result (the form BENCHMARK.json names); empty runs everything")
	traced := flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics (counters, traced pass, ladder)")
	selfcheck := flag.Bool("selfcheck", false, "measure every workload's end-to-end metrics twice and compare the two against the bounds")
	seed := flag.Int64("seed", 1, "the only input to the workload generator")
	flag.IntVar(&c.seconds, "seconds", 26, "length of a measured window, cut into 2 s slices")
	flag.BoolVar(&c.quick, "quick", false, "smoke-test shape: 0.2 s warm-up, one 1 s slice, ladder work / 100; measures the same things, badly")
	flag.StringVar(&c.outDir, "out", "out", "directory for WAL files and *.trace.json; must be on a real filesystem")
	flag.Parse()
	c.seed = uint64(*seed)
	if flag.NArg() > 0 || c.seconds < 1 || *traced < 0 || *traced > 1 {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(run(c, *workload, *traced == 1, *selfcheck))
}

func run(c config, workload string, traced, selfcheck bool) int {
	specs, err := loadSpecs()
	if err == nil {
		c.outDir, err = filepath.Abs(c.outDir)
	}
	if err == nil {
		err = os.MkdirAll(c.outDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	telemetry.Enable() // as cmd/txstore ships
	printFingerprint(c.outDir)
	fmt.Printf("# seed=%d seconds=%d quick=%v\n", c.seed, c.seconds, c.quick)

	if workload != "" {
		for _, spec := range specs {
			if spec.Name == workload {
				return runOne(spec, specs, c, traced)
			}
		}
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", workload)
		return 2
	}
	if selfcheck {
		return runSelfcheck(specs, c)
	}
	return runAll(specs, c)
}

// runOne is the driver's form: one workload, one kind of pass, and the
// result object as the last line.
func runOne(spec *Spec, specs []*Spec, c config, traced bool) int {
	var o outcome
	if traced {
		ladder, err := runLadder(specs, c.seed, c.outDir, c.quick, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: ladder:", err)
			return 1
		}
		o = layers(spec, c, ladder)
		o.metrics = append(ladder, o.metrics...)
	} else {
		o = endToEnd(spec, c)
	}
	o.metrics.print(spec.Name)
	if o.err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: INCORRECT: %v\n", spec.Name, o.err)
	}
	line, err := json.Marshal(o.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if o.err != nil {
		return 1
	}
	return 0
}

// runAll prints everything: every workload end to end, its layer pass, and
// the ladder (measured once, with its own trace file).
func runAll(specs []*Spec, c config) int {
	rec := newRecorder()
	ladder, err := runLadder(specs, c.seed, c.outDir, c.quick, rec)
	if werr := rec.write(filepath.Join(c.outDir, "ladder.trace.json")); err == nil {
		err = werr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: ladder:", err)
		return 1
	}
	ladder.print("ladder (fixed work per rung)")
	code := 0
	for _, spec := range specs {
		e := endToEnd(spec, c)
		e.metrics.print(spec.Name + ": end to end (tracing off)")
		fmt.Printf("%-40s %16d count\n%-40s %16.6f ratio\n", "attempted", e.attempted, "failed_frac", ratio(float64(e.failed), float64(e.attempted)))
		l := layers(spec, c, ladder)
		l.metrics.print(spec.Name + ": layers (counters, traced pass, budget)")
		for _, o := range []outcome{e, l} {
			if o.err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: INCORRECT: %v\n", spec.Name, o.err)
				code = 1
			}
		}
	}
	if code == 0 {
		fmt.Println("# correct: every response matched its model, final and recovered states matched, zero-counters read 0")
	}
	return code
}

// runSelfcheck measures every workload end to end twice in this process and
// sets the two against the bounds: the benchmark's own repeatability,
// checked the way a regression would be.
func runSelfcheck(specs []*Spec, c config) int {
	var rounds [2]map[string]outcome
	for i := range rounds {
		rounds[i] = map[string]outcome{}
		for _, spec := range specs {
			o := endToEnd(spec, c)
			if o.err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: INCORRECT: %v\n", spec.Name, o.err)
				return 1
			}
			rounds[i][spec.Name] = o
		}
	}
	code := 0
	fmt.Printf("%-18s %-14s %14s %14s %9s %6s\n", "workload", "metric", "first", "second", "worse_by", "bound")
	for _, spec := range specs {
		a, b := rounds[0][spec.Name].metrics, rounds[1][spec.Name].metrics
		for _, m := range a {
			// How much worse the second run reads than the first.
			worse := ratio(b.get(m.name)-m.value, m.value)
			if !lowerIsBetter(m.name) {
				worse = -worse
			}
			verdict := ""
			if worse > bounds[m.name] {
				verdict, code = "  EXCEEDS BOUND", 1
			}
			fmt.Printf("%-18s %-14s %14.4f %14.4f %+9.4f %6.2f%s\n", spec.Name, m.name, m.value, b.get(m.name), worse, bounds[m.name], verdict)
		}
	}
	return code
}
