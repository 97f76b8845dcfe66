package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/boosting"
	"repro/internal/conc"
	"repro/internal/otb"
	"repro/internal/telemetry"
	"repro/internal/txnet"
	"repro/internal/wal"
)

// The ladder measures each layer on its own, from outside, by timing calls
// into its exported API over a fixed amount of work. Rungs replay the same
// generated streams the workloads use (connection 0's), on one goroutine
// unless the name ends in .2t / .2w / .2c. The rungs the wire workloads are
// set against (device.loopback, txnet.wire.*.1c, txnet.client.dial) run
// confined to one CPU, as those workloads do; the rest have every CPU.
// "_ns" rungs time the whole loop and report the mean; "_us" and "_ms" rungs
// time every call and report the median.

// Fixed work per rung. -quick divides these by 100.
const (
	nListTx     = 40_000  // ~25 µs each on a 8k-node list
	nFastTx     = 400_000 // sub-µs structures
	nMultiTx    = 200_000
	nWireTx     = 100_000
	nDial       = 200
	nAppend     = 200_000
	nCommit     = 2_000 // one fsync each
	nSnapshot   = 5
	nSnapKeys   = 16_384
	nReplay     = 100_000
	nRecoverLog = 50_000
	nFsync      = 500
	nEcho       = 20_000
	spanCalls   = 256 // per-call spans kept per rung
)

// stream is a pre-generated run of transactions, k ops each, stored flat so
// replaying it costs the layer under test nothing.
type stream struct {
	ops []txnet.Op
	k   int
}

func (s stream) len() int            { return len(s.ops) / s.k }
func (s stream) tx(i int) []txnet.Op { return s.ops[i*s.k : (i+1)*s.k] }

// genStream draws n transactions of conn's stream; writesOnly keeps only
// the mutating ones.
func genStream(spec *Spec, seed uint64, conn, n int, writesOnly bool) stream {
	g := newGenerator(spec, seed, conn)
	s := stream{k: spec.OpsPerTx, ops: make([]txnet.Op, 0, n*spec.OpsPerTx)}
	var tx []txnet.Op
	for s.len() < n {
		var write bool
		if tx, write = g.next(tx); write || !writesOnly {
			s.ops = append(s.ops, tx...)
		}
	}
	return s
}

// fullPreload is the initial state of the whole workload, all connections'
// shares together.
func fullPreload(spec *Spec, seed uint64) []txnet.Op {
	var ops []txnet.Op
	for c := 0; c < spec.Conns; c++ {
		ops = append(ops, preloadOps(spec, seed, c)...)
	}
	return ops
}

type ladder struct {
	seed   uint64
	outDir string
	div    int
	rec    *recorder
	root   uint64
	specs  map[string]*Spec
	out    metrics

	// The streams and initial states the structure and store rungs share,
	// generated once: the set stream at list speed and at hashed speed, the
	// map stream, and both connections' multi streams.
	setSlow, setFast, mapFast stream
	multi                     [2]stream
	setLoad, mapLoad          []txnet.Op
	multiLoad                 []txnet.Op
}

func (l *ladder) n(full int) int { return max(full/l.div, 8) }

// rung runs fn under a span named after the rung.
func (l *ladder) rung(name string, fn func(id uint64)) {
	id, end := l.rec.begin("ladder."+name, l.root)
	fn(id)
	end()
}

// loopNS times n calls as one loop and returns the mean ns per call.
func loopNS(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// each times every call, keeps the first spanCalls as spans named call
// under parent, and returns the sorted durations in ns.
func (l *ladder) each(n int, call string, parent uint64, tid int, fn func(i int)) []uint32 {
	ds := make([]uint32, n)
	var spans []span
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fn(i)
		d := time.Since(t0)
		ds[i] = uint32(min(d, writeBit-1))
		if l.rec != nil && i < spanCalls {
			start := int64(t0.Sub(l.rec.epoch))
			spans = append(spans, span{name: call, id: parent<<20 | uint64(tid)<<10 | uint64(i+1), parent: parent,
				tid: tid, start: start, end: start + int64(d)})
		}
	}
	l.rec.add(spans)
	slices.Sort(ds)
	return ds
}

// both runs fn on two goroutines and waits for them.
func both(fn func(g int)) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(g)
		}()
	}
	wg.Wait()
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runLadder measures every rung. It returns an error only when a layer
// failed to do the work; the numbers carry no pass/fail.
func runLadder(specs []*Spec, seed uint64, outDir string, quick bool, rec *recorder) (metrics, error) {
	l := &ladder{seed: seed, outDir: outDir, div: 1, rec: rec, specs: map[string]*Spec{}}
	if quick {
		l.div = 100
	}
	for _, s := range specs {
		l.specs[s.Name] = s
	}
	setSpec, mapSpec, multiSpec := l.specs["net-set-point"], l.specs["net-map-point"], l.specs["inproc-multi-hot"]
	l.setSlow = genStream(setSpec, seed, 0, l.n(nListTx), false)
	l.setFast = genStream(setSpec, seed, 0, l.n(nFastTx), false)
	l.mapFast = genStream(mapSpec, seed, 0, l.n(nFastTx), false)
	for c := range l.multi {
		l.multi[c] = genStream(multiSpec, seed, c, l.n(nMultiTx), false)
	}
	l.setLoad, l.mapLoad, l.multiLoad = fullPreload(setSpec, seed), fullPreload(mapSpec, seed), fullPreload(multiSpec, seed)
	var end func()
	l.root, end = rec.begin("ladder", 0)
	defer end()
	for _, step := range []func() error{l.device, l.structures, l.stores, l.wire, l.wal, l.durable} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return l.out, nil
}

// device calibrates the two floors the code cannot go below: one small
// write+fsync on the WAL's filesystem, and one loopback TCP round trip.
func (l *ladder) device() error {
	f, err := os.CreateTemp(l.outDir, "fsync-probe-")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	rec := make([]byte, 56)
	var ferr error
	l.rung("device.fsync", func(id uint64) {
		ds := l.each(l.n(nFsync), "file.write+fsync", id, 0, func(int) {
			if _, err := f.Write(rec); err != nil {
				ferr = err
			}
			if err := f.Sync(); err != nil {
				ferr = err
			}
		})
		l.out.add("device.fsync_us_p50", percentile(ds, 0.5)/1e3, "us", len(ds))
	})
	if ferr != nil {
		return ferr
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c)
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	msg := make([]byte, 32)
	confine(1)
	defer confine(0)
	l.rung("device.loopback", func(id uint64) {
		ds := l.each(l.n(nEcho), "conn.echo", id, 0, func(int) {
			if _, err := c.Write(msg); err != nil {
				ferr = err
			}
			if _, err := io.ReadFull(c, msg); err != nil {
				ferr = err
			}
		})
		l.out.add("device.loopback_rtt_us_p50", percentile(ds, 0.5)/1e3, "us", len(ds))
	})
	c.Close()
	<-echoed
	return ferr
}

// setOps is what otb.ListSet and otb.SkipSet share.
type setOps interface {
	Add(tx *otb.Tx, key int64) bool
	Remove(tx *otb.Tx, key int64) bool
	Contains(tx *otb.Tx, key int64) bool
}

// otbTarget applies wire ops straight to OTB structures inside a caller's
// transaction: the otb rungs' stand-in for txnet's store adapter.
type otbTarget struct {
	set setOps
	m   *otb.Map
	pq  *otb.SkipPQ
}

func (t *otbTarget) apply(tx *otb.Tx, ops []txnet.Op) {
	for _, op := range ops {
		switch {
		case op.Struct == structSet && op.Code == txnet.OpAdd:
			_ = t.set.Add(tx, op.Key)
		case op.Struct == structSet && op.Code == txnet.OpRemove:
			_ = t.set.Remove(tx, op.Key)
		case op.Struct == structSet:
			_ = t.set.Contains(tx, op.Key)
		case op.Struct == structMap && op.Code == txnet.OpPut:
			_ = t.m.Put(tx, op.Key, op.Val)
		case op.Struct == structMap && op.Code == txnet.OpDelete:
			_ = t.m.Delete(tx, op.Key)
		case op.Struct == structMap:
			_, _ = t.m.Get(tx, op.Key)
		case op.Code == txnet.OpAdd:
			_ = t.pq.Add(tx, op.Key)
		default:
			_, _ = t.pq.RemoveMin(tx)
		}
	}
}

func (t *otbTarget) load(ops []txnet.Op) {
	_ = inBatches(ops, func(batch []txnet.Op) error {
		otb.Atomic(nil, func(tx *otb.Tx) { t.apply(tx, batch) })
		return nil
	})
}

// structures is the otb and boosting rungs: transactions straight on the
// structures through otb.Atomic / boosting.Atomic.
func (l *ladder) structures() error {
	run := func(name string, t *otbTarget, load []txnet.Op, s stream) {
		t.load(load)
		l.rung(name, func(uint64) {
			ns := loopNS(s.len(), func(i int) {
				otb.Atomic(nil, func(tx *otb.Tx) { t.apply(tx, s.tx(i)) })
			})
			l.out.add(name, ns, "ns", s.len())
		})
	}
	run("otb.listset.tx_ns", &otbTarget{set: otb.NewListSet()}, l.setLoad, l.setSlow)
	run("otb.skipset.tx_ns", &otbTarget{set: otb.NewSkipSet()}, l.setLoad, l.setFast)
	run("otb.map.tx_ns", &otbTarget{m: otb.NewMap()}, l.mapLoad, l.mapFast)

	newMulti := func() *otbTarget {
		t := &otbTarget{set: otb.NewListSet(), m: otb.NewMap(), pq: otb.NewSkipPQ()}
		t.load(l.multiLoad)
		return t
	}
	multi := l.multi
	t := newMulti()
	l.rung("otb.multi.tx_ns", func(uint64) {
		m0 := mallocs()
		ns := loopNS(multi[0].len(), func(i int) {
			otb.Atomic(nil, func(tx *otb.Tx) { t.apply(tx, multi[0].tx(i)) })
		})
		allocs := mallocs() - m0
		l.out.add("otb.multi.tx_ns", ns, "ns", multi[0].len())
		l.out.add("otb.multi.allocs_per_tx", float64(allocs)/float64(multi[0].len()), "count", multi[0].len())
	})
	t = newMulti()
	l.rung("otb.multi.tx_ns.2t", func(uint64) {
		before := telemetry.M("OTB").Snapshot()
		var ns [2]float64
		both(func(g int) {
			ns[g] = loopNS(multi[g].len(), func(i int) {
				otb.Atomic(nil, func(tx *otb.Tx) { t.apply(tx, multi[g].tx(i)) })
			})
		})
		after := telemetry.M("OTB").Snapshot()
		aborts := float64(after.TotalAborts() - before.TotalAborts())
		l.out.add("otb.multi.tx_ns.2t", (ns[0]+ns[1])/2, "ns", 2*multi[0].len())
		l.out.add("otb.multi.abort_rate.2t", ratio(aborts, aborts+float64(after.Commits-before.Commits)), "ratio", 2*multi[0].len())
	})

	// The same set stream on the pessimistic baseline keeps the paper's
	// OTB-vs-boosting ratio in view.
	bs := boosting.NewSet(conc.NewLazyList(), 4096)
	for _, op := range l.setLoad {
		boosting.Atomic(nil, nil, func(tx *boosting.Tx) { bs.Add(tx, op.Key) })
	}
	l.rung("boosting.listset.tx_ns", func(uint64) {
		ns := loopNS(l.setSlow.len(), func(i int) {
			op := l.setSlow.tx(i)[0]
			boosting.Atomic(nil, nil, func(tx *boosting.Tx) {
				switch op.Code {
				case txnet.OpAdd:
					_ = bs.Add(tx, op.Key)
				case txnet.OpRemove:
					_ = bs.Remove(tx, op.Key)
				default:
					_ = bs.Contains(tx, op.Key)
				}
			})
		})
		l.out.add("boosting.listset.tx_ns", ns, "ns", l.setSlow.len())
	})
	return nil
}

// stores is the txnet.store rungs: the same streams through Store.Exec, so
// adapter cost = exec_ns − the otb rung below it.
func (l *ladder) stores() error {
	var ferr error
	run := func(name string, st txnet.Store, load []txnet.Op, s stream) {
		res := make([]txnet.OpResult, preloadBatch)
		if err := inBatches(load, func(batch []txnet.Op) error {
			return st.Exec(context.Background(), batch, res)
		}); err != nil {
			ferr = err
		}
		l.rung(name, func(uint64) {
			ns := loopNS(s.len(), func(i int) {
				if err := st.Exec(context.Background(), s.tx(i), res); err != nil {
					ferr = err
				}
			})
			l.out.add(name, ns, "ns", s.len())
		})
	}
	run("txnet.store.otb.exec_ns.set", txnet.NewOTBStore(), l.setLoad, l.setSlow)
	run("txnet.store.otb.exec_ns.map", txnet.NewOTBStore(), l.mapLoad, l.mapFast)
	run("txnet.store.otb.exec_ns.multi", txnet.NewOTBStore(), l.multiLoad, l.multi[0])
	mvSet, mvMap := txnet.NewMVOTBStore(), txnet.NewMVOTBStore()
	run("txnet.store.mvotb.exec_ns.set", mvSet, l.setLoad, l.setFast)
	mvSet.Stop()
	run("txnet.store.mvotb.exec_ns.map", mvMap, l.mapLoad, l.mapFast)
	mvMap.Stop()
	return ferr
}

// nullStore commits everything and does nothing, so a server over it costs
// exactly the wire: protocol, client, session, admission.
type nullStore struct{}

func (nullStore) Exec(context.Context, []txnet.Op, []txnet.OpResult) error { return nil }
func (nullStore) NumStructs() int                                          { return 3 }

func (l *ladder) wire() error {
	srv, err := txnet.Listen("127.0.0.1:0", txnet.Options{Store: nullStore{}})
	if err != nil {
		return err
	}
	defer srv.Close()
	var ferr error
	note := func(err error) {
		if err != nil && ferr == nil {
			ferr = err
		}
	}
	var clients [2]*txnet.Client
	for i := range clients {
		if clients[i], err = txnet.Dial(srv.Addr(), &txnet.ClientOptions{Seed: int64(i) + 1}); err != nil {
			return err
		}
		defer clients[i].Close()
	}
	mapSpec := l.specs["net-map-point"]
	n := l.n(nWireTx)
	tx1 := [2]stream{genStream(mapSpec, l.seed, 0, n, false), genStream(mapSpec, l.seed, 1, n, false)}
	do := func(c *txnet.Client, ops []txnet.Op) {
		_, err := c.Do(context.Background(), ops)
		note(err)
	}

	confine(1)
	l.rung("txnet.wire.null_rtt.1c", func(id uint64) {
		m0 := mallocs()
		_, sys0 := cpuTimes()
		ds := l.each(n, "client.do", id, 0, func(i int) { do(clients[0], tx1[0].tx(i)) })
		_, sys1 := cpuTimes()
		allocs := mallocs() - m0
		l.out.add("txnet.wire.null_rtt_us_p50.1c", percentile(ds, 0.5)/1e3, "us", n)
		l.out.add("txnet.wire.allocs_per_tx", float64(allocs)/float64(n), "count", n)
		l.out.add("txnet.wire.sys_cpu_us_per_tx", (sys1-sys0)/float64(n), "us", n)
	})
	l.rung("txnet.wire.null_rtt8.1c", func(uint64) {
		// 1-op and 8-op frames alternate so both medians see the same
		// machine state: their difference is smaller than its drift.
		s8 := stream{ops: tx1[0].ops, k: 8}
		d1, d8 := make([]uint32, s8.len()), make([]uint32, s8.len())
		for i := range d8 {
			t0 := time.Now()
			do(clients[0], tx1[0].tx(i))
			t1 := time.Now()
			do(clients[0], s8.tx(i))
			d1[i], d8[i] = uint32(t1.Sub(t0)), uint32(time.Since(t1))
		}
		slices.Sort(d1)
		slices.Sort(d8)
		rtt8 := percentile(d8, 0.5)
		l.out.add("txnet.wire.null_rtt8_us_p50.1c", rtt8/1e3, "us", s8.len())
		l.out.add("txnet.wire.per_op_ns", (rtt8-percentile(d1, 0.5))/7, "ns", s8.len())
	})
	l.rung("txnet.client.dial", func(id uint64) {
		ds := l.each(l.n(nDial), "client.dial+close", id, 0, func(int) {
			c, err := txnet.Dial(srv.Addr(), &txnet.ClientOptions{Seed: 1})
			note(err)
			if err == nil {
				c.Close()
			}
		})
		l.out.add("txnet.client.dial_us_p50", percentile(ds, 0.5)/1e3, "us", len(ds))
	})
	confine(0)
	l.rung("txnet.wire.null_rtt.2c", func(id uint64) {
		var ds [2][]uint32
		t0 := time.Now()
		both(func(g int) {
			ds[g] = l.each(n, "client.do", id, g, func(i int) { do(clients[g], tx1[g].tx(i)) })
		})
		wall := time.Since(t0)
		all := append(ds[0], ds[1]...)
		slices.Sort(all)
		l.out.add("txnet.wire.null_rtt_us_p50.2c", percentile(all, 0.5)/1e3, "us", 2*n)
		l.out.add("txnet.wire.null_rtt_us_p99.2c", percentile(all, 0.99)/1e3, "us", 2*n)
		l.out.add("txnet.wire.null_tx_per_s.2c", float64(2*n)/wall.Seconds(), "1/s", 2*n)
	})
	return ferr
}

// wal is the log on its own: Open / Append / SyncTo / Snapshot.
func (l *ladder) wal() error {
	payload := make([]byte, 40)
	var ferr error
	note := func(err error) {
		if err != nil && ferr == nil {
			ferr = err
		}
	}
	withLog := func(name string, opts wal.Options, fn func(id uint64, dir string, lg *wal.Log)) {
		dir, err := os.MkdirTemp(l.outDir, "ladder-wal-")
		if err != nil {
			note(err)
			return
		}
		defer os.RemoveAll(dir)
		lg, _, err := wal.Open(dir, opts)
		if err != nil {
			note(err)
			return
		}
		l.rung(name, func(id uint64) { fn(id, dir, lg) })
		note(lg.Close())
	}
	commit := func(lg *wal.Log) {
		lsn, err := lg.Append(payload)
		note(err)
		note(lg.SyncTo(lsn))
	}

	withLog("wal.append.never", wal.Options{Policy: wal.SyncNever}, func(_ uint64, dir string, lg *wal.Log) {
		n := l.n(nAppend)
		s0 := wal.StatsSnapshot()
		ns := loopNS(n, func(int) {
			_, err := lg.Append(payload)
			note(err)
		})
		s1 := wal.StatsSnapshot()
		l.out.add("wal.append_ns.never", ns, "ns", n)
		l.out.add("wal.bytes_per_record.40B", ratio(float64(s1.AppendedBytes-s0.AppendedBytes), float64(s1.Appends-s0.Appends)), "B", n)
	})
	withLog("wal.commit.always.1w", wal.Options{Policy: wal.SyncAlways}, func(id uint64, _ string, lg *wal.Log) {
		ds := l.each(l.n(nCommit), "wal.append+syncto", id, 0, func(int) { commit(lg) })
		l.out.add("wal.commit_us.always.1w", percentile(ds, 0.5)/1e3, "us", len(ds))
	})
	two := func(name, metric string, opts wal.Options, n int, batching bool) {
		withLog(name, opts, func(id uint64, _ string, lg *wal.Log) {
			var ds [2][]uint32
			s0 := wal.StatsSnapshot()
			both(func(g int) {
				ds[g] = l.each(n, "wal.append+syncto", id, g, func(int) { commit(lg) })
			})
			s1 := wal.StatsSnapshot()
			all := append(ds[0], ds[1]...)
			slices.Sort(all)
			l.out.add(metric, percentile(all, 0.5)/1e3, "us", len(all))
			if batching {
				l.out.add("wal.appends_per_fsync.2w", ratio(float64(s1.Appends-s0.Appends), float64(s1.Fsyncs-s0.Fsyncs)), "ratio", len(all))
			}
		})
	}
	two("wal.commit.always.2w", "wal.commit_us.always.2w", wal.Options{Policy: wal.SyncAlways}, l.n(nCommit), true)
	two("wal.commit.interval.2w", "wal.commit_us.interval.2w", wal.Options{Policy: wal.SyncInterval}, l.n(nAppend)/2, false)

	withLog("wal.snapshot.16k", wal.Options{Policy: wal.SyncNever}, func(id uint64, _ string, lg *wal.Log) {
		snap := make([]byte, l.n(nSnapKeys)*21)
		ds := l.each(nSnapshot, "wal.snapshot", id, 0, func(int) {
			_, err := lg.Append(payload)
			note(err)
			note(lg.Snapshot(snap))
		})
		l.out.add("wal.snapshot_ms.16k", percentile(ds, 0.5)/1e6, "ms", len(ds))
	})

	dir, err := os.MkdirTemp(l.outDir, "ladder-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	lg, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		return err
	}
	n := l.n(nReplay)
	for i := 0; i < n; i++ {
		_, err := lg.Append(payload)
		note(err)
	}
	note(lg.Close())
	l.rung("wal.open_replay.100k", func(id uint64) {
		ds := l.each(3, "wal.open", id, 0, func(int) {
			lg, rec, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
			note(err)
			if err == nil {
				if len(rec.Records) != n {
					note(fmt.Errorf("wal.Open replayed %d records, wrote %d", len(rec.Records), n))
				}
				note(lg.Close())
			}
		})
		l.out.add("wal.open_replay_ms.100k", percentile(ds, 0.5)/1e6, "ms", len(ds))
	})
	return ferr
}

// durable is restart time: OpenDurable over a directory built through the
// wire, with and without snapshots bounding the log.
func (l *ladder) durable() error {
	spec := l.specs["durable-mixed"]
	n := l.n(nRecoverLog)
	writes := genStream(spec, l.seed, 0, n, true)
	recoverMS := func(name string, snapEvery int) (txnet.RecoveryStats, error) {
		var stats txnet.RecoveryStats
		dir, err := os.MkdirTemp(l.outDir, "ladder-durable-")
		if err != nil {
			return stats, err
		}
		defer os.RemoveAll(dir)
		opts := txnet.DurabilityOptions{Dir: dir, Fsync: wal.SyncNever, SnapshotEvery: snapEvery}
		d, err := txnet.OpenDurable(txnet.NewOTBStore(), opts)
		if err != nil {
			return stats, err
		}
		srv, err := txnet.Listen("127.0.0.1:0", txnet.Options{Durable: d})
		if err != nil {
			d.Close()
			return stats, err
		}
		c, err := txnet.Dial(srv.Addr(), &txnet.ClientOptions{Seed: 1})
		if err != nil {
			srv.Close()
			return stats, err
		}
		for i := 0; i < n && err == nil; i++ {
			_, err = c.Do(context.Background(), writes.tx(i))
		}
		c.Close()
		if serr := srv.Shutdown(context.Background()); err == nil {
			err = serr
		}
		if err != nil {
			return stats, err
		}
		l.rung(name, func(id uint64) {
			ds := l.each(3, "durable.open", id, 0, func(int) {
				var d *txnet.Durable
				if d, err = txnet.OpenDurable(txnet.NewOTBStore(), opts); err == nil {
					stats = d.Recovery()
					err = d.Close()
				}
			})
			l.out.add(name, percentile(ds, 0.5)/1e6, "ms", len(ds))
		})
		return stats, err
	}
	if _, err := recoverMS("txnet.durable.recover_ms.log50k", -1); err != nil {
		return err
	}
	stats, err := recoverMS("txnet.durable.recover_ms.snap", 0)
	if err != nil {
		return err
	}
	l.out.add("txnet.durable.recover_records.snap", float64(stats.RecordsReplayed), "count", 1)
	return l.durableAlways()
}

// durableAlways is the full durable stack with the device on the
// acknowledgement path: two connections commit writes through a server
// under fsync=always. It is a rung, not a workload, because its time is the
// device's, and the device of a shared host moves by 2× between runs. Its
// budget row sets it against wire + store + the bare log's two-writer
// commit: the difference is what txnet.durable adds.
func (l *ladder) durableAlways() error {
	spec := l.specs["durable-mixed"]
	n := l.n(nCommit)
	dir, err := os.MkdirTemp(l.outDir, "ladder-durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := txnet.OpenDurable(txnet.NewOTBStore(), txnet.DurabilityOptions{Dir: dir, Fsync: wal.SyncAlways})
	if err != nil {
		return err
	}
	srv, err := txnet.Listen("127.0.0.1:0", txnet.Options{Durable: d})
	if err != nil {
		d.Close()
		return err
	}
	defer srv.Close()
	var clients [2]*txnet.Client
	var writes [2]stream
	for i := range clients {
		if clients[i], err = txnet.Dial(srv.Addr(), &txnet.ClientOptions{Seed: int64(i) + 1}); err != nil {
			return err
		}
		defer clients[i].Close()
		writes[i] = genStream(spec, l.seed, i, n, true)
	}
	var ferr [2]error
	l.rung("txnet.durable.commit.always.2c", func(id uint64) {
		var ds [2][]uint32
		s0 := wal.StatsSnapshot()
		both(func(g int) {
			ds[g] = l.each(n, "client.do", id, g, func(i int) {
				if _, err := clients[g].Do(context.Background(), writes[g].tx(i)); err != nil {
					ferr[g] = err
				}
			})
		})
		s1 := wal.StatsSnapshot()
		all := append(ds[0], ds[1]...)
		slices.Sort(all)
		p50 := percentile(all, 0.5) / 1e3
		l.out.add("txnet.durable.commit_us.always.2c", p50, "us", len(all))
		l.out.add("txnet.durable.appends_per_fsync.2c", ratio(float64(s1.Appends-s0.Appends), float64(s1.Fsyncs-s0.Fsyncs)), "ratio", len(all))
		l.out.add("budget.durable_always.gap_frac", gapFrac(p50, l.out.get("txnet.wire.null_rtt_us_p50.2c"),
			l.out.get("txnet.store.otb.exec_ns.map")/1e3, l.out.get("wal.commit_us.always.2w")), "ratio", len(all))
	})
	if ferr[0] != nil {
		return ferr[0]
	}
	return ferr[1]
}
