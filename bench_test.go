// Benchmarks, one per table and figure of the paper's evaluation sections.
// Each benchmark runs a representative configuration of the corresponding
// experiment under testing.B (b.RunParallel over the same drivers the full
// harness uses); `go run ./cmd/reproduce -exp <id>` regenerates the complete
// thread sweep.
package repro

import (
	"math/rand/v2"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/boosting"
	"repro/internal/conc"
	"repro/internal/integrate"
	"repro/internal/mem"
	"repro/internal/otb"
	"repro/internal/rinval"
	"repro/internal/rtc"
	"repro/internal/stamp"
	"repro/internal/stm"
	"repro/internal/stm/invalstm"
	"repro/internal/stm/norec"
	"repro/internal/stm/ringsw"
	"repro/internal/stm/tl2"
	"repro/internal/stmds"
)

// benchMixes are the workload mixes exercised per set benchmark: the
// Chapter 3 panels (internal/bench chapter3Mixes) that carry writes.
var benchMixes = []struct {
	name     string
	writePct int
	opsPerTx int
}{
	{"read-intensive", 20, 1},
	{"write-intensive", 80, 1},
	{"high-contention", 80, 5},
}

// benchSetDriver measures b.N transactions of wl on the driver from mk.
func benchSetDriver(b *testing.B, wl bench.SetWorkload, mk func() bench.SetDriver) {
	b.Helper()
	d := mk()
	defer d.Stop()
	wl.Populate(d)
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(worker.Add(1))
		gen := wl.NewSetWorker(id)
		rng := rand.New(rand.NewPCG(uint64(id), 7))
		for pb.Next() {
			d.RunTx(gen(rng))
		}
	})
}

// setBenchmark runs the three-series Chapter 3 comparison.
func setBenchmark(b *testing.B, size int, drivers map[string]func() bench.SetDriver) {
	for _, mix := range benchMixes {
		wl := bench.SetWorkload{
			InitialSize: size, KeyRange: int64(size) * 8,
			WritePct: mix.writePct, OpsPerTx: mix.opsPerTx,
		}
		for name, mk := range drivers {
			b.Run(mix.name+"/"+name, func(b *testing.B) { benchSetDriver(b, wl, mk) })
		}
	}
}

func BenchmarkFig3_3(b *testing.B) {
	setBenchmark(b, 512, map[string]func() bench.SetDriver{
		"Lazy": func() bench.SetDriver { return bench.NewLazyDriver(conc.NewLazyList()) },
		"PessimisticBoosted": func() bench.SetDriver {
			return bench.NewBoostedDriver(boosting.NewSet(conc.NewLazyList(), 4096))
		},
		"OptimisticBoosted": func() bench.SetDriver { return bench.NewOTBDriver(otb.NewListSet()) },
	})
}

func BenchmarkFig3_4(b *testing.B) {
	setBenchmark(b, 512, map[string]func() bench.SetDriver{
		"Lazy": func() bench.SetDriver { return bench.NewLazyDriver(conc.NewLazySkipList()) },
		"PessimisticBoosted": func() bench.SetDriver {
			return bench.NewBoostedDriver(boosting.NewSet(conc.NewLazySkipList(), 4096))
		},
		"OptimisticBoosted": func() bench.SetDriver { return bench.NewOTBDriver(otb.NewSkipSet()) },
	})
}

func BenchmarkFig3_5(b *testing.B) {
	setBenchmark(b, 64*1024, map[string]func() bench.SetDriver{
		"PessimisticBoosted": func() bench.SetDriver {
			return bench.NewBoostedDriver(boosting.NewSet(conc.NewLazySkipList(), 1<<16))
		},
		"OptimisticBoosted": func() bench.SetDriver { return bench.NewOTBDriver(otb.NewSkipSet()) },
	})
}

// BenchmarkReadOnlyTx prices one read-only transaction of a single
// Contains on the three series of Figs 3.3 and 3.5, on one goroutine: the
// list of 512 keys and the skip list of 64 K, half the key range present.
// OTB's reads take no lock and pessimistic boosting's take an uncontended
// abstract read lock, so OTB can lead the read-only panels only if its
// overhead over Lazy is below that lock's price; this puts both on record.
func BenchmarkReadOnlyTx(b *testing.B) {
	type series struct {
		name string
		mk   func() bench.SetDriver
	}
	for _, st := range []struct {
		name   string
		size   int
		series []series
	}{
		{"list", 512, []series{
			{"Lazy", func() bench.SetDriver { return bench.NewLazyDriver(conc.NewLazyList()) }},
			{"PessimisticBoosted", func() bench.SetDriver {
				return bench.NewBoostedDriver(boosting.NewSet(conc.NewLazyList(), 4096))
			}},
			{"OptimisticBoosted", func() bench.SetDriver { return bench.NewOTBDriver(otb.NewListSet()) }},
		}},
		{"skip", 64 * 1024, []series{
			{"Lazy", func() bench.SetDriver { return bench.NewLazyDriver(conc.NewLazySkipList()) }},
			{"PessimisticBoosted", func() bench.SetDriver {
				return bench.NewBoostedDriver(boosting.NewSet(conc.NewLazySkipList(), 1<<16))
			}},
			{"OptimisticBoosted", func() bench.SetDriver { return bench.NewOTBDriver(otb.NewSkipSet()) }},
		}},
	} {
		for _, se := range st.series {
			b.Run(st.name+"/"+se.name, func(b *testing.B) {
				d := se.mk()
				defer d.Stop()
				keyRange := 2 * int64(st.size)
				bench.SetWorkload{InitialSize: st.size, KeyRange: keyRange}.Populate(d)
				rng := rand.New(rand.NewPCG(1, 2))
				ops := []bench.SetOp{{Kind: bench.OpContains}}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ops[0].Key = rng.Int64N(keyRange)
					d.RunTx(ops)
				}
			})
		}
	}
}

// walkLists caches BenchmarkListWalk's churned lists: building one costs
// about as much as the measurement, and testing.B calls the benchmark
// function once per b.N it tries.
var walkLists = map[string]struct {
	d    bench.SetDriver
	keys []int64
}{}

// BenchmarkListWalk prices one hop of the list walk that dominates
// net-set-point, on both sides of the paper's list comparison: 8 192 keys in
// a 16 384 range, preloaded in seeded random order in 64-op transactions,
// then churned by 200 k single-op 80/10/10 transactions — the server list
// of that workload. It measures single-Contains transactions on one
// goroutine and reports ns per next-pointer hop: a lookup of k loads
// 1 + (keys below k) next pointers.
func BenchmarkListWalk(b *testing.B) {
	const keyRange, preload, batch, churn = 16384, 8192, 64, 200_000
	for _, se := range []struct {
		name string
		mk   func() (bench.SetDriver, func() []int64)
	}{
		{"OptimisticBoosted", func() (bench.SetDriver, func() []int64) {
			s := otb.NewListSet()
			return bench.NewOTBDriver(s), s.Keys
		}},
		{"Lazy", func() (bench.SetDriver, func() []int64) {
			l := conc.NewLazyList()
			return bench.NewLazyDriver(l), l.Keys
		}},
	} {
		b.Run(se.name, func(b *testing.B) {
			list, ok := walkLists[se.name]
			if !ok {
				d, keys := se.mk()
				rng := rand.New(rand.NewPCG(21, 4))
				perm := rng.Perm(keyRange)[:preload]
				ops := make([]bench.SetOp, batch)
				for i := 0; i < preload; i += batch {
					for j, k := range perm[i : i+batch] {
						ops[j] = bench.SetOp{Kind: bench.OpAdd, Key: int64(k)}
					}
					d.RunTx(ops)
				}
				ops = ops[:1]
				for range churn {
					ops[0].Key = rng.Int64N(keyRange)
					switch op := rng.IntN(10); {
					case op < 8:
						ops[0].Kind = bench.OpContains
					case op == 8:
						ops[0].Kind = bench.OpAdd
					default:
						ops[0].Kind = bench.OpRemove
					}
					d.RunTx(ops)
				}
				list.d, list.keys = d, keys()
				walkLists[se.name] = list
			}
			rng := rand.New(rand.NewPCG(1, 2))
			queries, hopsOf := make([]int64, 4096), make([]int, 4096)
			for i := range queries {
				k := rng.Int64N(keyRange)
				queries[i], hopsOf[i] = k, 1+sort.Search(len(list.keys), func(j int) bool { return list.keys[j] >= k })
			}
			ops := []bench.SetOp{{Kind: bench.OpContains}}
			hops := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ops[0].Key = queries[i%len(queries)]
				list.d.RunTx(ops)
				hops += hopsOf[i%len(queries)]
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/hop")
		})
	}
}

// benchPQDriver measures b.N priority-queue transactions.
func benchPQDriver(b *testing.B, opsPerTx int, mk func() bench.PQDriver) {
	b.Helper()
	d := mk()
	defer d.Stop()
	seedRng := rand.New(rand.NewPCG(1, 1))
	var seed []bench.PQOp
	for i := 0; i < 512; i++ {
		seed = append(seed, bench.PQOp{Kind: bench.PQAdd, Key: seedRng.Int64N(1 << 40)})
	}
	d.RunTx(seed)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(rand.Uint64(), 3))
		ops := make([]bench.PQOp, opsPerTx)
		for pb.Next() {
			for i := range ops {
				if rng.IntN(2) == 0 {
					ops[i] = bench.PQOp{Kind: bench.PQAdd, Key: rng.Int64N(1 << 40)}
				} else {
					ops[i] = bench.PQOp{Kind: bench.PQRemoveMin}
				}
			}
			d.RunTx(ops)
		}
	})
}

func BenchmarkFig3_6(b *testing.B) {
	for _, txSize := range []int{1, 5} {
		name := map[int]string{1: "tx1", 5: "tx5"}[txSize]
		b.Run(name+"/PessimisticBoosted", func(b *testing.B) {
			benchPQDriver(b, txSize, func() bench.PQDriver {
				return bench.NewBoostedPQDriver(boosting.NewPQ())
			})
		})
		b.Run(name+"/OptimisticBoosted", func(b *testing.B) {
			benchPQDriver(b, txSize, func() bench.PQDriver {
				return bench.NewOTBHeapPQDriver(otb.NewHeapPQ())
			})
		})
	}
}

func BenchmarkFig3_7(b *testing.B) {
	for _, txSize := range []int{1, 5} {
		name := map[int]string{1: "tx1", 5: "tx5"}[txSize]
		b.Run(name+"/PessimisticBoosted", func(b *testing.B) {
			benchPQDriver(b, txSize, func() bench.PQDriver {
				return bench.NewBoostedPQDriver(
					boosting.NewPQOver(boosting.SkipPQAdapter{Q: conc.NewSkipPQ()}))
			})
		})
		b.Run(name+"/OptimisticBoosted", func(b *testing.B) {
			benchPQDriver(b, txSize, func() bench.PQDriver {
				return bench.NewOTBSkipPQDriver(otb.NewSkipPQ())
			})
		})
	}
}

// chapter4Bench runs the pure-STM vs integrated comparison on one structure
// family.
func chapter4Bench(b *testing.B, size int, drivers map[string]func() bench.SetDriver) {
	wl := bench.SetWorkload{InitialSize: size, KeyRange: int64(size) * 8, WritePct: 50, OpsPerTx: 1}
	for name, mk := range drivers {
		b.Run(name, func(b *testing.B) { benchSetDriver(b, wl, mk) })
	}
}

func BenchmarkFig4_2(b *testing.B) {
	chapter4Bench(b, 512, map[string]func() bench.SetDriver{
		"NOrec": func() bench.SetDriver {
			return bench.NewSTMDriver("NOrec", norec.New(), stmds.NewList(1<<22))
		},
		"TL2": func() bench.SetDriver {
			return bench.NewSTMDriver("TL2", tl2.New(), stmds.NewList(1<<22))
		},
		"OTB-NOrec": func() bench.SetDriver {
			return bench.NewIntegratedDriver(integrate.NewOTBNOrec(), otb.NewListSet())
		},
		"OTB-TL2": func() bench.SetDriver {
			return bench.NewIntegratedDriver(integrate.NewOTBTL2(), otb.NewListSet())
		},
	})
}

func BenchmarkFig4_3(b *testing.B) {
	chapter4Bench(b, 4096, map[string]func() bench.SetDriver{
		"NOrec": func() bench.SetDriver {
			return bench.NewSTMDriver("NOrec", norec.New(), stmds.NewSkipList(1<<20))
		},
		"TL2": func() bench.SetDriver {
			return bench.NewSTMDriver("TL2", tl2.New(), stmds.NewSkipList(1<<20))
		},
		"OTB-NOrec": func() bench.SetDriver {
			return bench.NewIntegratedDriver(integrate.NewOTBNOrec(), otb.NewSkipSet())
		},
		"OTB-TL2": func() bench.SetDriver {
			return bench.NewIntegratedDriver(integrate.NewOTBTL2(), otb.NewSkipSet())
		},
	})
}

func BenchmarkFig4_4(b *testing.B) {
	// Algorithm 7 over the integrated contexts: one set op plus counter
	// updates per transaction.
	for _, mk := range []func() integrate.Algorithm{
		integrateNOrec, integrateTL2,
	} {
		alg := mk()
		set := otb.NewListSet()
		cnt := [2]*mem.Cell{mem.NewCell(0), mem.NewCell(0)}
		b.Run(alg.Name(), func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewPCG(rand.Uint64(), 5))
				for pb.Next() {
					k := rng.Int64N(4096)
					alg.Atomic(func(ctx *integrate.Ctx) {
						idx := 0
						if !set.Add(ctx.Sem(), k) {
							idx = 1
						}
						ctx.Write(cnt[idx], ctx.Read(cnt[idx])+1)
					})
				}
			})
		})
		alg.Stop()
	}
}

func integrateNOrec() integrate.Algorithm { return integrate.NewOTBNOrec() }
func integrateTL2() integrate.Algorithm   { return integrate.NewOTBTL2() }

// stampBench runs b.N transactions of every STAMP profile on alg, reporting
// the commit-time ratio when profiling is available.
func stampBench(b *testing.B, mkAlg func() stm.Algorithm) {
	for _, app := range stamp.Apps() {
		b.Run(app.Name, func(b *testing.B) {
			alg := mkAlg()
			defer alg.Stop()
			w := stamp.NewWorkload(app)
			var sink atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewPCG(rand.Uint64(), 11))
				var local uint64
				for pb.Next() {
					local += w.RunTx(alg, rng)
				}
				sink.Add(local)
			})
		})
	}
}

func BenchmarkTable5_1(b *testing.B) {
	// Commit-time ratio measurement: NOrec with the critical-path profiler.
	for _, app := range stamp.Apps() {
		b.Run(app.Name, func(b *testing.B) {
			alg := norec.New()
			prof := &stm.Profile{}
			alg.SetProfile(prof)
			w := stamp.NewWorkload(app)
			var sink atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewPCG(rand.Uint64(), 13))
				var local uint64
				for pb.Next() {
					local += w.RunTx(alg, rng)
				}
				sink.Add(local)
			})
			b.StopTimer()
			snap := prof.Snapshot()
			if snap.TotalNS > 0 {
				b.ReportMetric(100*float64(snap.CommitNS)/float64(snap.TotalNS), "commit%trans")
			}
		})
	}
}

// rbTreeBench measures b.N red-black tree transactions at 50% writes.
func rbTreeBench(b *testing.B, size int, mkAlg func() stm.Algorithm) {
	alg := mkAlg()
	defer alg.Stop()
	d := bench.NewSTMDriver(alg.Name(), alg, bench.RBAsSet(stmds.NewRBTree(1<<21)))
	wl := bench.SetWorkload{InitialSize: size, KeyRange: int64(size) * 8, WritePct: 50, OpsPerTx: 1}
	wl.Populate(d)
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(worker.Add(1))
		gen := wl.NewSetWorker(id)
		rng := rand.New(rand.NewPCG(uint64(id), 17))
		for pb.Next() {
			d.RunTx(gen(rng))
		}
	})
}

func BenchmarkFig5_5(b *testing.B) {
	for name, mk := range chapter5Algs() {
		b.Run(name, func(b *testing.B) { rbTreeBench(b, 64*1024, mk) })
	}
}

func chapter5Algs() map[string]func() stm.Algorithm {
	return map[string]func() stm.Algorithm{
		"RingSW": func() stm.Algorithm { return ringsw.New() },
		"NOrec":  func() stm.Algorithm { return norec.New() },
		"TL2":    func() stm.Algorithm { return tl2.New() },
		"RTC":    func() stm.Algorithm { return rtc.New(rtc.Options{Secondaries: 1}) },
	}
}

func BenchmarkFig5_6(b *testing.B) {
	// Contention-event proxy: events per transaction on a small tree.
	for _, name := range []string{"NOrec", "RTC"} {
		b.Run(name, func(b *testing.B) {
			var alg stm.Algorithm
			if name == "NOrec" {
				alg = norec.New()
			} else {
				alg = rtc.New(rtc.Options{Secondaries: 1})
			}
			defer alg.Stop()
			d := bench.NewSTMDriver(name, alg, bench.RBAsSet(stmds.NewRBTree(1<<21)))
			wl := bench.SetWorkload{InitialSize: 64, KeyRange: 512, WritePct: 50, OpsPerTx: 1}
			wl.Populate(d)
			alg.Counters().Reset()
			var worker atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := int(worker.Add(1))
				gen := wl.NewSetWorker(id)
				rng := rand.New(rand.NewPCG(uint64(id), 19))
				for pb.Next() {
					d.RunTx(gen(rng))
				}
			})
			b.StopTimer()
			casf, spins := alg.Counters().Snapshot()
			b.ReportMetric(float64(casf+spins)/float64(b.N), "events/tx")
		})
	}
}

func BenchmarkFig5_7(b *testing.B) {
	for name, mk := range chapter5Algs() {
		b.Run(name, func(b *testing.B) {
			alg := mk()
			defer alg.Stop()
			d := bench.NewSTMDriver(name, alg, bench.HashMapAsSet(stmds.NewHashMap(256, 1<<21)))
			wl := bench.SetWorkload{InitialSize: 10000, KeyRange: 80000, WritePct: 50, OpsPerTx: 1}
			wl.Populate(d)
			var worker atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := int(worker.Add(1))
				gen := wl.NewSetWorker(id)
				rng := rand.New(rand.NewPCG(uint64(id), 23))
				for pb.Next() {
					d.RunTx(gen(rng))
				}
			})
		})
	}
}

func BenchmarkFig5_8(b *testing.B) {
	for name, mk := range chapter5Algs() {
		b.Run(name, func(b *testing.B) {
			alg := mk()
			defer alg.Stop()
			d := bench.NewSTMDriver(name, alg, stmds.NewDList(1<<20))
			wl := bench.SetWorkload{InitialSize: 500, KeyRange: 4000, WritePct: 50, OpsPerTx: 1}
			wl.Populate(d)
			var worker atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := int(worker.Add(1))
				gen := wl.NewSetWorker(id)
				rng := rand.New(rand.NewPCG(uint64(id), 29))
				for pb.Next() {
					d.RunTx(gen(rng))
				}
			})
		})
	}
}

func BenchmarkFig5_9(b *testing.B) {
	// Multiprogramming: many more workers than cores.
	b.SetParallelism(16)
	for name, mk := range chapter5Algs() {
		b.Run(name, func(b *testing.B) { rbTreeBench(b, 64*1024, mk) })
	}
}

func BenchmarkFig5_10(b *testing.B) {
	for name, mk := range chapter5Algs() {
		b.Run(name, func(b *testing.B) { stampBench(b, mk) })
	}
}

func BenchmarkFig5_11(b *testing.B) {
	for _, secs := range []int{0, 1, 2} {
		name := map[int]string{0: "no-dd", 1: "one-detector", 2: "two-detectors"}[secs]
		b.Run(name, func(b *testing.B) {
			alg := rtc.New(rtc.Options{Secondaries: secs, DDThreshold: 2})
			defer alg.Stop()
			const banks = 64
			const cellsPer = 8
			cells := make([][]*mem.Cell, banks)
			for i := range cells {
				cells[i] = make([]*mem.Cell, cellsPer)
				for j := range cells[i] {
					cells[i][j] = mem.NewCell(0)
				}
			}
			var worker atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				mine := cells[int(worker.Add(1))%banks]
				for pb.Next() {
					alg.Atomic(func(tx stm.Tx) {
						for _, c := range mine {
							tx.Write(c, tx.Read(c)+1)
						}
					})
				}
			})
		})
	}
}

func BenchmarkFig6_2(b *testing.B) {
	// Critical-path breakdown on the red-black tree, reported as metrics.
	// The algorithm is created inside the closure: b.Run re-invokes it for
	// b.N calibration, and a server-based algorithm must not be reused
	// after Stop.
	for _, mk := range []func() (stm.Algorithm, *stm.Profile){
		func() (stm.Algorithm, *stm.Profile) {
			a, p := norec.New(), &stm.Profile{}
			a.SetProfile(p)
			return a, p
		},
		func() (stm.Algorithm, *stm.Profile) {
			a, p := invalstm.New(), &stm.Profile{}
			a.SetProfile(p)
			return a, p
		},
		func() (stm.Algorithm, *stm.Profile) {
			a, p := rinval.New(rinval.V3), &stm.Profile{}
			a.SetProfile(p)
			return a, p
		},
	} {
		name, _ := mk()
		benchName := name.Name()
		name.Stop()
		b.Run(benchName, func(b *testing.B) {
			alg, prof := mk()
			defer alg.Stop()
			d := bench.NewSTMDriver(alg.Name(), alg, bench.RBAsSet(stmds.NewRBTree(1<<21)))
			wl := bench.SetWorkload{InitialSize: 16 * 1024, KeyRange: 128 * 1024, WritePct: 50, OpsPerTx: 1}
			wl.Populate(d)
			var worker atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := int(worker.Add(1))
				gen := wl.NewSetWorker(id)
				rng := rand.New(rand.NewPCG(uint64(id), 31))
				for pb.Next() {
					d.RunTx(gen(rng))
				}
			})
			b.StopTimer()
			snap := prof.Snapshot()
			if snap.TotalNS > 0 {
				b.ReportMetric(100*float64(snap.ValidationNS)/float64(snap.TotalNS), "val%")
				b.ReportMetric(100*float64(snap.CommitNS)/float64(snap.TotalNS), "commit%")
			}
		})
	}
}

func BenchmarkFig6_3(b *testing.B) {
	// STAMP breakdown under RInval-V3 (NOrec's is measured by Table 5.1).
	alg := rinval.New(rinval.V3)
	prof := &stm.Profile{}
	alg.SetProfile(prof)
	defer alg.Stop()
	for _, app := range stamp.Apps() {
		b.Run(app.Name, func(b *testing.B) {
			w := stamp.NewWorkload(app)
			var sink atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewPCG(rand.Uint64(), 37))
				var local uint64
				for pb.Next() {
					local += w.RunTx(alg, rng)
				}
				sink.Add(local)
			})
		})
	}
}

func BenchmarkFig6_7(b *testing.B) {
	algs := map[string]func() stm.Algorithm{
		"NOrec":     func() stm.Algorithm { return norec.New() },
		"InvalSTM":  func() stm.Algorithm { return invalstm.New() },
		"RInval-V1": func() stm.Algorithm { return rinval.New(rinval.V1) },
		"RInval-V2": func() stm.Algorithm { return rinval.New(rinval.V2) },
		"RInval-V3": func() stm.Algorithm { return rinval.New(rinval.V3) },
	}
	for name, mk := range algs {
		b.Run(name, func(b *testing.B) { rbTreeBench(b, 64*1024, mk) })
	}
}

func BenchmarkFig6_8(b *testing.B) {
	algs := map[string]func() stm.Algorithm{
		"NOrec":     func() stm.Algorithm { return norec.New() },
		"InvalSTM":  func() stm.Algorithm { return invalstm.New() },
		"RInval-V3": func() stm.Algorithm { return rinval.New(rinval.V3) },
	}
	for name, mk := range algs {
		b.Run(name, func(b *testing.B) { stampBench(b, mk) })
	}
}
