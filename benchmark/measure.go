package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/txnet"
	"repro/internal/wal"
)

// shape is how long one pass warms up and measures. The measured window is
// cut into consecutive slices; every timing is computed per slice and the
// best slice is reported (see best), so a noisy neighbour spoils some
// slices, not the run.
type shape struct {
	warmup time.Duration
	slices int
	slice  time.Duration
}

func (s shape) window() time.Duration { return time.Duration(s.slices) * s.slice }

// writeBit marks a latency sample as belonging to a write transaction.
// Latencies are kept in ns and clamped to 31 bits (2.1 s).
const writeBit = 1 << 31

// instance is one system under test, set up and loaded: the store, the
// durable log and server in front of it where the workload has them, and
// one worker per connection.
type instance struct {
	spec    *Spec
	store   *txnet.OTBStore
	durOpts txnet.DurabilityOptions
	srv     *txnet.Server
	workers []*worker
	preload []txnet.Op // multi workloads: the initial state, for verifyDump
	rec     *recorder
}

// worker is one closed-loop caller: a connection (or, in-process, a
// goroutine on the store) that sends its next transaction only when the
// previous one has answered.
type worker struct {
	id     int
	gen    *generator
	model  *model
	client *txnet.Client
	store  txnet.Store
	ops    []txnet.Op
	res    []txnet.OpResult

	attempted, failed uint64
	err               error // first failed or wrong response

	samples []uint32 // one per committed transaction of the window
	cuts    []int    // len(samples) at each slice end

	// Traced windows only.
	stageNS    [trace.NumStages][]uint32 // non-zero stage durations
	stageSum   [trace.NumStages]uint64
	totalSum   uint64
	spans      []span
	spanParent []uint64 // slice span ids
	rec        *recorder
}

// setUp builds the workload's system and loads its initial state. rec may
// be nil.
func setUp(spec *Spec, seed uint64, outDir string, rec *recorder) (inst *instance, err error) {
	root, end := rec.begin("bench.setup", 0)
	defer end()
	inst = &instance{spec: spec, store: txnet.NewOTBStore(), rec: rec}
	defer func() {
		if err != nil {
			inst.tearDown()
		}
	}()
	var dur *txnet.Durable
	if spec.Fsync != "" {
		policy, perr := wal.ParsePolicy(spec.Fsync)
		if perr != nil {
			return inst, perr
		}
		dir, derr := os.MkdirTemp(outDir, spec.Name+"-wal-")
		if derr != nil {
			return inst, derr
		}
		inst.durOpts = txnet.DurabilityOptions{Dir: dir, Fsync: policy, SnapshotEvery: spec.SnapshotEvery}
		_, endOpen := rec.begin("durable.open", root)
		dur, err = txnet.OpenDurable(inst.store, inst.durOpts)
		endOpen()
		if err != nil {
			return inst, err
		}
	}
	if spec.Transport == "loopback" {
		inst.srv, err = txnet.Listen("127.0.0.1:0", txnet.Options{Store: inst.store, Durable: dur})
		if err != nil {
			if dur != nil {
				dur.Close()
			}
			return inst, err
		}
	}
	for i := 0; i < spec.Conns; i++ {
		w := &worker{id: i, gen: newGenerator(spec, seed, i), model: newModel(spec),
			store: inst.store, res: make([]txnet.OpResult, preloadBatch), rec: rec}
		if inst.srv != nil {
			_, endDial := rec.begin("bench.dial", root)
			w.client, err = txnet.Dial(inst.srv.Addr(), &txnet.ClientOptions{Seed: int64(seed) + int64(i) + 1})
			endDial()
			if err != nil {
				return inst, err
			}
		}
		inst.workers = append(inst.workers, w)
	}
	_, endLoad := rec.begin("bench.preload", root)
	defer endLoad()
	if spec.Shape == "multi" {
		inst.preload = preloadOps(spec, seed, 0)
	}
	// One connection after the other: concurrent loaders would conflict on
	// the shared list and make set-up time depend on the retries.
	for i, w := range inst.workers {
		if err = w.load(preloadOps(spec, seed, i)); err != nil {
			return inst, fmt.Errorf("preload: %w", err)
		}
	}
	return inst, nil
}

// load applies ops in preloadBatch-op transactions through the worker's own
// path and requires every one to create its entry.
func (w *worker) load(ops []txnet.Op) error {
	return inBatches(ops, func(batch []txnet.Op) error {
		res, err := w.exec(batch, nil)
		if err != nil {
			return err
		}
		for i, r := range res {
			if !r.OK {
				return fmt.Errorf("%s(%d) on structure %d found the key already there", batch[i].Code, batch[i].Key, batch[i].Struct)
			}
		}
		if w.gen.spec.Shape == "point" {
			return w.model.check(batch, res)
		}
		return nil
	})
}

// exec runs one transaction the way the workload's callers do.
func (w *worker) exec(ops []txnet.Op, st *txnet.Stages) ([]txnet.OpResult, error) {
	if w.client != nil {
		return w.client.DoStages(context.Background(), ops, st)
	}
	res := w.res[:len(ops)]
	return res, w.store.Exec(context.Background(), ops, res)
}

// tearDown stops everything setUp started and removes the WAL directory.
func (inst *instance) tearDown() {
	for _, w := range inst.workers {
		if w.client != nil {
			w.client.Close()
		}
	}
	if inst.srv != nil {
		inst.srv.Close() // closes the durable log too
		inst.srv = nil
	}
	if inst.durOpts.Dir != "" {
		os.RemoveAll(inst.durOpts.Dir)
	}
}

// pass is one run of all workers over warm-up or window, a slice at a time.
type pass struct {
	slice  time.Duration
	slices int
	record bool
	traced bool
	// between, if set, runs at each slice boundary inside the pass, while the
	// workers are parked.
	between func()
	starts  []time.Time // of each slice
	cpu     []float64   // process CPU time (user+sys µs) spent within each slice
}

// run issues transactions back to back until slice si, which ends at end,
// is over. The end is read off the clock; nothing is cancelled, so a
// fault-free run resends nothing.
func (w *worker) run(p *pass, si int, end time.Time) {
	var stg *txnet.Stages
	if p.traced && w.client != nil {
		stg = new(txnet.Stages)
	}
	for {
		var write bool
		w.ops, write = w.gen.next(w.ops)
		t0 := time.Now()
		if !t0.Before(end) {
			w.cuts = append(w.cuts, len(w.samples))
			return
		}
		res, err := w.exec(w.ops, stg)
		d := time.Since(t0)
		w.attempted++
		if err != nil {
			w.failed++
			if w.err == nil {
				w.err = err
			}
			continue
		}
		if cerr := w.model.check(w.ops, res); cerr != nil && w.err == nil {
			w.err = cerr
		}
		if !p.record {
			continue
		}
		sample := uint32(min(d, writeBit-1))
		if write {
			sample |= writeBit
		}
		w.samples = append(w.samples, sample)
		if p.traced {
			w.trace(t0, d, stg, si)
		}
	}
}

// trace keeps one traced transaction's stage breakdown and, for the first
// maxTxSpans of them, its spans: client.do (or store.exec in-process) with
// the server's stage block laid out inside it.
func (w *worker) trace(t0 time.Time, d time.Duration, stg *txnet.Stages, slice int) {
	w.totalSum += uint64(d)
	if stg == nil {
		w.stageSum[trace.StageExecute] += uint64(d)
		w.stageNS[trace.StageExecute] = append(w.stageNS[trace.StageExecute], uint32(min(d, writeBit-1)))
	} else {
		for s, sd := range stg.D {
			if sd > 0 {
				w.stageSum[s] += uint64(sd)
				w.stageNS[s] = append(w.stageNS[s], uint32(min(sd, writeBit-1)))
			}
		}
	}
	n := uint64(len(w.samples))
	if n > maxTxSpans {
		return
	}
	id := uint64(w.id+1)<<40 | n<<4
	start := int64(t0.Sub(w.rec.epoch))
	name := "store.exec"
	if stg != nil {
		name = "client.do"
	}
	w.spans = append(w.spans, span{name: name, id: id, parent: w.spanParent[slice], tx: id, tid: w.id + 1,
		start: start, end: start + int64(d)})
	if stg == nil {
		return
	}
	// The request reaches the server after the client's queue stage and
	// half the wire time; the server stages follow one another from there.
	at := start + int64(stg.D[trace.StageQueue]+stg.D[trace.StageNet]/2)
	for s := trace.StageDispatch; s < trace.StageAck; s++ {
		if sd := int64(stg.D[s]); sd > 0 {
			w.spans = append(w.spans, span{name: "server." + s.String(), id: id | uint64(s), parent: id, tx: id,
				tid: w.id + 1, start: at, end: at + sd})
			at += sd
		}
	}
}

// counters is every program-side count the benchmark reads, all through
// exported snapshots.
type counters struct {
	srv       txnet.Stats
	cli       txnet.ClientStats
	wal       wal.Stats
	otbCommit uint64
	otbAbort  uint64
	mem       runtime.MemStats
	user, sys float64
	ackCount  float64 // server ack-stage histogram, from the OpenMetrics text
	ackSumS   float64
}

func (inst *instance) readCounters() counters {
	var c counters
	if inst.srv != nil {
		c.srv = inst.srv.Stats()
	}
	for _, w := range inst.workers {
		if w.client != nil {
			s := w.client.Stats()
			c.cli.Resends += s.Resends
			c.cli.Reconnects += s.Reconnects
			c.cli.Overloads += s.Overloads
		}
	}
	c.wal = wal.StatsSnapshot()
	otb := telemetry.M("OTB").Snapshot()
	c.otbCommit, c.otbAbort = otb.Commits, otb.TotalAborts()
	runtime.ReadMemStats(&c.mem)
	c.user, c.sys = cpuTimes()
	c.ackCount, c.ackSumS = ackHistogram()
	return c
}

// ackHistogram reads the server's ack-stage histogram. The ack stage is the
// one the wire stage block cannot carry (the response is encoded before it
// is written), so the only exported view of it is the /metrics text.
func ackHistogram() (count, sumSeconds float64) {
	var buf bytes.Buffer
	if err := telemetry.WriteOpenMetrics(&buf, nil); err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, `txnet_stage_duration_seconds_count{stage="ack"} `); ok {
			count, _ = strconv.ParseFloat(rest, 64)
		}
		if rest, ok := strings.CutPrefix(line, `txnet_stage_duration_seconds_sum{stage="ack"} `); ok {
			sumSeconds, _ = strconv.ParseFloat(rest, 64)
		}
	}
	return count, sumSeconds
}

// windowResult is what one measured window produced, before naming.
type windowResult struct {
	sh                shape
	attempted, failed uint64
	committed         uint64
	// Per slice.
	txPerS, p50, p99, readP50, writeP50, cpuPerTx []float64
	nAll, nRead, nWrite                           int // mean samples per slice
	writeP999, maxUS                              float64
	before, after                                 counters
	liveHeapMB                                    float64
	walDirBytes                                   int64
	// Traced windows.
	stageNS  [trace.NumStages][]uint32
	stageSum [trace.NumStages]uint64
	totalSum uint64
}

// window warms the instance up and measures one window of sh. With traced
// set every request asks for its stage block, the flight recorder samples 1
// request in 64, and the benchmark records its own spans into inst.rec,
// which must not be nil then. between, if not nil, runs at every slice
// boundary inside the window while the workers are parked.
func (inst *instance) window(sh shape, traced bool, between func()) (*windowResult, error) {
	name := "bench.window"
	if traced {
		name = "bench.window.traced"
		trace.Enable(64)
		defer trace.Disable()
	}
	root, endRoot := inst.rec.begin(name, 0)
	defer endRoot()

	_, endWarm := inst.rec.begin("bench.warmup", root)
	warm := inst.runPass(&pass{slice: sh.warmup, slices: 1, traced: traced})
	endWarm()
	if err := inst.firstError(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	// Size the sample buffers from the warm-up rate so the window never
	// regrows them.
	for i, w := range inst.workers {
		want := int(float64(warm[i]) * 1.5 * float64(sh.window()) / float64(sh.warmup))
		w.samples = make([]uint32, 0, want+4096)
		w.cuts = w.cuts[:0]
		w.attempted, w.failed = 0, 0
		w.spans, w.spanParent = nil, make([]uint64, sh.slices)
	}

	r := &windowResult{sh: sh, before: inst.readCounters()}
	p := &pass{slice: sh.slice, slices: sh.slices, record: true, traced: traced, between: between}
	inst.runPass(p)
	r.after = inst.readCounters()
	if inst.durOpts.Dir != "" {
		r.walDirBytes = dirBytes(inst.durOpts.Dir)
	}
	if traced {
		for i := 0; i < sh.slices; i++ {
			s := span{name: "bench.slice", id: inst.workers[0].spanParent[i], parent: root,
				start: int64(p.starts[i].Sub(inst.rec.epoch))}
			s.end = s.start + int64(sh.slice)
			inst.rec.add([]span{s})
		}
		for _, w := range inst.workers {
			inst.rec.add(w.spans)
		}
	}
	inst.summarize(r, p)
	for _, w := range inst.workers {
		w.samples = nil
		for s := range w.stageNS {
			w.stageNS[s], w.stageSum[s] = nil, 0
		}
		w.totalSum = 0
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.liveHeapMB = float64(ms.HeapAlloc) / (1 << 20)
	return r, inst.firstError()
}

// runPass runs every worker over p, slice by slice, and returns how many
// transactions each attempted.
func (inst *instance) runPass(p *pass) []uint64 {
	p.starts = make([]time.Time, p.slices)
	p.cpu = make([]float64, p.slices)
	if p.traced && p.record {
		for i := 0; i < p.slices; i++ {
			id := inst.rec.newID()
			for _, w := range inst.workers {
				w.spanParent[i] = id
			}
		}
	}
	before := make([]uint64, len(inst.workers))
	for i, w := range inst.workers {
		before[i] = w.attempted
	}
	for si := 0; si < p.slices; si++ {
		if si > 0 && p.between != nil {
			p.between()
		}
		u0, s0 := cpuTimes()
		p.starts[si] = time.Now()
		end := p.starts[si].Add(p.slice)
		var wg sync.WaitGroup
		for _, w := range inst.workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.run(p, si, end)
			}()
		}
		wg.Wait()
		u1, s1 := cpuTimes()
		p.cpu[si] = u1 + s1 - u0 - s0
	}
	for i, w := range inst.workers {
		before[i] = w.attempted - before[i]
	}
	return before
}

func (inst *instance) firstError() error {
	for _, w := range inst.workers {
		if w.err != nil {
			return fmt.Errorf("connection %d: %w", w.id, w.err)
		}
	}
	return nil
}

// summarize turns the workers' raw samples into per-slice figures.
func (inst *instance) summarize(r *windowResult, p *pass) {
	var all, reads, writes, windowWrites []uint32
	sliceS := p.slice.Seconds()
	for si := 0; si < p.slices; si++ {
		all, reads, writes = all[:0], reads[:0], writes[:0]
		for _, w := range inst.workers {
			lo := 0
			if si > 0 {
				lo = w.cuts[si-1]
			}
			for _, s := range w.samples[lo:w.cuts[si]] {
				ns := s &^ writeBit
				all = append(all, ns)
				if s&writeBit != 0 {
					writes = append(writes, ns)
				} else {
					reads = append(reads, ns)
				}
			}
		}
		slices.Sort(all)
		slices.Sort(reads)
		slices.Sort(writes)
		windowWrites = append(windowWrites, writes...)
		r.txPerS = append(r.txPerS, float64(len(all))/sliceS)
		r.p50 = append(r.p50, percentile(all, 0.50)/1e3)
		r.p99 = append(r.p99, percentile(all, 0.99)/1e3)
		r.readP50 = append(r.readP50, percentile(reads, 0.50)/1e3)
		r.writeP50 = append(r.writeP50, percentile(writes, 0.50)/1e3)
		r.cpuPerTx = append(r.cpuPerTx, ratio(p.cpu[si], float64(len(all))))
		r.nAll += len(all) / p.slices
		r.nRead += len(reads) / p.slices
		r.nWrite += len(writes) / p.slices
		if n := len(all); n > 0 {
			r.maxUS = max(r.maxUS, float64(all[n-1])/1e3)
		}
	}
	slices.Sort(windowWrites)
	r.writeP999 = percentile(windowWrites, 0.999) / 1e3
	for _, w := range inst.workers {
		r.attempted += w.attempted
		r.failed += w.failed
		r.committed += uint64(len(w.samples))
		for s := range w.stageNS {
			r.stageNS[s] = append(r.stageNS[s], w.stageNS[s]...)
			r.stageSum[s] += w.stageSum[s]
		}
		r.totalSum += w.totalSum
	}
	for s := range r.stageNS {
		slices.Sort(r.stageNS[s])
	}
}

// finish is the correctness gate at the end of an instance's life: the
// store's dump must equal the connections' models, and a durable store must
// say the same after shutdown and recovery from its directory — every
// acknowledged write present. It tears the instance down either way.
func (inst *instance) finish() error {
	_, end := inst.rec.begin("verify", 0)
	defer end()
	defer inst.tearDown()
	if err := inst.firstError(); err != nil {
		return err
	}
	models := make([]*model, len(inst.workers))
	for i, w := range inst.workers {
		models[i] = w.model
	}
	if err := verifyDump(inst.spec, dumpOf(inst.store), inst.preload, models); err != nil {
		return fmt.Errorf("final state: %w", err)
	}
	if inst.durOpts.Dir == "" {
		return nil
	}
	for _, w := range inst.workers {
		w.client.Close()
	}
	_, endClose := inst.rec.begin("durable.close", 0)
	err := inst.srv.Shutdown(context.Background())
	endClose()
	inst.srv = nil
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	_, endReopen := inst.rec.begin("durable.reopen", 0)
	recovered := txnet.NewOTBStore()
	d, err := txnet.OpenDurable(recovered, inst.durOpts)
	endReopen()
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	defer d.Close()
	if err := verifyDump(inst.spec, dumpOf(recovered), inst.preload, models); err != nil {
		return fmt.Errorf("recovered state: %w", err)
	}
	return nil
}

func dumpOf(s *txnet.OTBStore) []txnet.Op {
	var ops []txnet.Op
	s.DumpOps(func(op txnet.Op) { ops = append(ops, op) })
	return ops
}
