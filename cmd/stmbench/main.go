// Command stmbench is a general-purpose workload runner over every
// transactional implementation in the repository: pick a structure, an
// algorithm, a workload mix and a thread count, and get throughput plus
// abort statistics. It is the free-form counterpart of cmd/reproduce's
// fixed paper experiments.
//
// Examples:
//
//	stmbench -structure otb-skip -threads 8 -writes 20
//	stmbench -structure stm-rbtree -alg TL2 -size 65536 -writes 50
//	stmbench -structure lazy-list -threads 16 -duration 2s
//	stmbench -list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"strings"
	"time"

	"repro/internal/abort"
	"repro/internal/bench"
	"repro/internal/boosting"
	"repro/internal/chaos/failpoint"
	"repro/internal/cm"
	"repro/internal/conc"
	"repro/internal/integrate"
	"repro/internal/mvotb"
	"repro/internal/otb"
	"repro/internal/rinval"
	"repro/internal/rtc"
	"repro/internal/stm"
	"repro/internal/stm/glock"
	"repro/internal/stm/invalstm"
	"repro/internal/stm/norec"
	"repro/internal/stm/ringsw"
	"repro/internal/stm/tl2"
	"repro/internal/stm/tml"
	"repro/internal/stmds"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// jsonResult is the machine-readable run summary emitted by -json: the
// shared stmbench-result/v1 record (see internal/bench.Result; the schema is
// documented in EXPERIMENTS.md, "Machine-readable results") plus telemetry
// meters and conflict attributions.
type jsonResult struct {
	bench.Result
	Meters    []jsonMeter  `json:"meters,omitempty"`
	Conflicts []jsonHotKey `json:"hot_keys,omitempty"`
}

// jsonMeter is one telemetry meter in the JSON summary.
type jsonMeter struct {
	Name        string            `json:"name"`
	Policy      string            `json:"policy,omitempty"`
	Commits     uint64            `json:"commits"`
	AbortsTotal uint64            `json:"aborts_total"`
	AbortRate   float64           `json:"abort_rate"`
	Aborts      map[string]uint64 `json:"aborts_by_reason,omitempty"`
	Fallbacks   uint64            `json:"fallbacks,omitempty"`
	Escalations uint64            `json:"escalations,omitempty"`
	TxP50NS     int64             `json:"tx_p50_ns"`
	TxP99NS     int64             `json:"tx_p99_ns"`
	CommitP50NS int64             `json:"commit_p50_ns"`
	CommitP99NS int64             `json:"commit_p99_ns"`
}

// jsonHotKey is one conflict-attribution entry in the JSON summary
// (present only when the flight recorder is armed via -trace-sample).
type jsonHotKey struct {
	Runtime    string `json:"runtime"`
	Key        uint64 `json:"key"`
	Aborts     uint64 `json:"aborts"`
	LostTimeNS uint64 `json:"lost_time_ns"`
}

// writeJSON assembles and writes the -json result file.
func writeJSON(path string, res jsonResult, snap []telemetry.MeterSnapshot) error {
	for _, m := range snap {
		jm := jsonMeter{
			Name:        m.Name,
			Policy:      m.Policy,
			Commits:     m.Commits,
			AbortsTotal: m.TotalAborts(),
			AbortRate:   m.AbortRate(),
			Fallbacks:   m.Fallbacks,
			Escalations: m.Escalations,
			TxP50NS:     int64(m.TxLatency.Quantile(0.50)),
			TxP99NS:     int64(m.TxLatency.Quantile(0.99)),
			CommitP50NS: int64(m.CommitLatency.Quantile(0.50)),
			CommitP99NS: int64(m.CommitLatency.Quantile(0.99)),
		}
		for r, n := range m.Aborts {
			if n > 0 {
				if jm.Aborts == nil {
					jm.Aborts = make(map[string]uint64)
				}
				jm.Aborts[telemetry.ReasonName(abort.Reason(r))] = n
			}
		}
		res.Meters = append(res.Meters, jm)
	}
	for _, c := range trace.Default.Conflicts(10) {
		res.Conflicts = append(res.Conflicts, jsonHotKey{
			Runtime: c.Runtime, Key: c.Key, Aborts: c.Aborts, LostTimeNS: c.WaitNS,
		})
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// stmAlgorithms maps -alg values to constructors (for stm-* structures).
var stmAlgorithms = map[string]func() stm.Algorithm{
	"NOrec":    func() stm.Algorithm { return norec.New() },
	"TL2":      func() stm.Algorithm { return tl2.New() },
	"TML":      func() stm.Algorithm { return tml.New() },
	"RingSW":   func() stm.Algorithm { return ringsw.New() },
	"InvalSTM": func() stm.Algorithm { return invalstm.New() },
	"CGL":      func() stm.Algorithm { return glock.New() },
	"RTC":      func() stm.Algorithm { return rtc.New(rtc.Options{Secondaries: 1}) },
	"RInval":   func() stm.Algorithm { return rinval.New(rinval.V3) },
}

// mkDriver builds the requested structure+algorithm driver.
func mkDriver(structure, alg string, capacity int) (bench.SetDriver, error) {
	mkSTM := func(set interface {
		Add(stm.Tx, int64) bool
		Remove(stm.Tx, int64) bool
		Contains(stm.Tx, int64) bool
	}) (bench.SetDriver, error) {
		mk, ok := stmAlgorithms[alg]
		if !ok {
			return nil, fmt.Errorf("unknown -alg %q (see -list)", alg)
		}
		a := mk()
		return bench.NewSTMDriver(a.Name(), a, set), nil
	}
	switch structure {
	case "lazy-list":
		return bench.NewLazyDriver(conc.NewLazyList()), nil
	case "lazy-skip":
		return bench.NewLazyDriver(conc.NewLazySkipList()), nil
	case "boosted-list":
		return bench.NewBoostedDriver(boosting.NewSet(conc.NewLazyList(), 4096)), nil
	case "boosted-skip":
		return bench.NewBoostedDriver(boosting.NewSet(conc.NewLazySkipList(), 4096)), nil
	case "otb-list":
		return bench.NewOTBDriver(otb.NewListSet()), nil
	case "otb-skip":
		return bench.NewOTBDriver(otb.NewSkipSet()), nil
	case "otb-hash":
		return bench.NewOTBDriver(otb.NewHashSet(256)), nil
	case "mvotb-set", "mvotb":
		rt := mvotb.New(mvotb.Options{})
		return bench.NewMVOTBDriver(rt, rt.NewSet(4096)), nil
	case "otb-norec-list":
		return bench.NewIntegratedDriver(integrate.NewOTBNOrec(), otb.NewListSet()), nil
	case "otb-tl2-list":
		return bench.NewIntegratedDriver(integrate.NewOTBTL2(), otb.NewListSet()), nil
	case "stm-list":
		return mkSTM(stmds.NewList(capacity))
	case "stm-skip":
		return mkSTM(stmds.NewSkipList(capacity))
	case "stm-dlist":
		return mkSTM(stmds.NewDList(capacity))
	case "stm-rbtree":
		return mkSTM(bench.RBAsSet(stmds.NewRBTree(capacity)))
	case "stm-hashmap":
		return mkSTM(bench.HashMapAsSet(stmds.NewHashMap(256, capacity)))
	default:
		return nil, fmt.Errorf("unknown -structure %q (see -list)", structure)
	}
}

func main() {
	var (
		structure = flag.String("structure", "otb-list", "data structure implementation")
		alg       = flag.String("alg", "NOrec", "STM algorithm (stm-* structures only)")
		threads   = flag.Int("threads", 4, "worker goroutines")
		size      = flag.Int("size", 512, "initial elements")
		writes    = flag.Int("writes", 20, "write percentage (split add/remove)")
		opsPerTx  = flag.Int("ops", 1, "operations per transaction")
		duration  = flag.Duration("duration", time.Second, "measurement window")
		warmup    = flag.Duration("warmup", 200*time.Millisecond, "warmup before measuring")
		capacity  = flag.Int("capacity", 1<<21, "arena capacity for stm-* structures (nodes)")
		list      = flag.Bool("list", false, "list structures and algorithms, then exit")
		noTel     = flag.Bool("no-telemetry", false, "disable the end-of-run telemetry snapshot")
		cmPolicy  = flag.String("cm", "", "contention-management policy: "+strings.Join(cm.Names(), ", "))
		cmBudget  = flag.Int("cm-budget", 0, "retry budget before serial-mode escalation (<0 disables)")
		failspec  = flag.String("failpoints", "", "fault-injection specs, 'name=action[@triggers];...' (see internal/chaos/failpoint)")
		deadline  = flag.Duration("deadline", 0, "run transactions under a context with this deadline; expired transactions abort with the canceled reason (0 = off)")
		jsonOut   = flag.String("json", "", "write a machine-readable result file to this path (schema in EXPERIMENTS.md)")
		debugAddr = flag.String("debug-addr", "", "serve the live debug endpoint (trace snapshot, conflict table, pprof, expvar) on this address")
		traceEach = flag.Uint64("trace-sample", 0, "arm the transaction flight recorder, sampling 1 in N transactions (0 = off)")
		traceOut  = flag.String("trace-out", "", "write the flight recorder's Perfetto trace-event JSON to this path at exit")
	)
	flag.Parse()

	if err := cm.Configure(*cmPolicy, *cmBudget); err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		os.Exit(2)
	}
	if *failspec != "" {
		if err := failpoint.Apply(*failspec); err != nil {
			fmt.Fprintln(os.Stderr, "stmbench:", err)
			os.Exit(2)
		}
	}
	if !*noTel {
		telemetry.Enable()
		telemetry.Publish()
	}
	if *traceEach > 0 || *traceOut != "" {
		n := *traceEach
		if n == 0 {
			n = 1
		}
		trace.Enable(n)
	}
	if *debugAddr != "" {
		srv, err := trace.Serve(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stmbench:", err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "stmbench: debug endpoint on http://%s/debug/trace\n", srv.Addr())
	}

	if *list {
		fmt.Println("structures: lazy-list lazy-skip boosted-list boosted-skip otb-list" +
			" otb-skip otb-hash mvotb-set otb-norec-list otb-tl2-list stm-list stm-skip" +
			" stm-dlist stm-rbtree stm-hashmap")
		fmt.Print("algorithms (stm-*):")
		for name := range stmAlgorithms {
			fmt.Printf(" %s", name)
		}
		fmt.Println()
		return
	}

	d, err := mkDriver(*structure, *alg, *capacity)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stmbench:", err)
		os.Exit(2)
	}
	defer d.Stop()

	wl := bench.SetWorkload{
		InitialSize: *size,
		KeyRange:    int64(*size) * 8,
		WritePct:    *writes,
		OpsPerTx:    *opsPerTx,
	}
	wl.Populate(d)
	// Window the telemetry to the measured run: population is excluded.
	telemetry.Default.Reset()
	gens := make([]func(*rand.Rand) []bench.SetOp, *threads)
	for i := range gens {
		gens[i] = wl.NewSetWorker(i)
	}
	cfg := bench.Config{Threads: []int{*threads}, Warmup: *warmup, Measure: *duration}

	// -deadline runs every transaction under one shared expiring context:
	// once it passes, transactions return canceled instead of committing
	// (the count shows up in the telemetry table). -failpoints with a panic
	// action injects crashes; the worker recovers the injected value — the
	// runtimes have already rolled back — and keeps going, so recovered
	// panics are countable too.
	var runCtx context.Context
	if *deadline > 0 {
		var cancelRun context.CancelFunc
		runCtx, cancelRun = context.WithTimeout(context.Background(), *deadline)
		defer cancelRun()
	}
	runOne := func(id int, rng *rand.Rand) {
		ops := gens[id](rng)
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if _, injected := p.(*failpoint.PanicValue); !injected {
				panic(p)
			}
		}()
		if runCtx != nil {
			_ = d.RunTxCtx(runCtx, ops)
			return
		}
		d.RunTx(ops)
	}

	workload := fmt.Sprintf("%s/w%d/t%d", *structure, *writes, *threads)
	var tput float64
	var memStats bench.MemStats
	trace.Do(d.Name(), workload, func() {
		tput, memStats = bench.ThroughputMem(cfg, *threads, runOne)
	})
	fmt.Printf("%-16s %-10s threads=%-3d size=%-7d writes=%d%% ops/tx=%d\n",
		*structure, d.Name(), *threads, *size, *writes, *opsPerTx)
	fmt.Printf("throughput: %.0f tx/sec (%.0f ops/sec)\n", tput, tput*float64(*opsPerTx))
	fmt.Printf("memory: %.2f allocs/tx, %.1f B/tx, %d GC cycles, %s total pause\n",
		memStats.AllocsPerTx, memStats.AllocBytesPerTx, memStats.NumGC,
		time.Duration(memStats.GCPauseTotalNS))
	if telemetry.Default.Enabled() {
		fmt.Println()
		snap := telemetry.Default.Snapshot()
		telemetry.WriteTable(os.Stdout, snap)
		var panics, canceled uint64
		for _, m := range snap {
			panics += m.RecoveredPanics()
			canceled += m.Canceled()
		}
		fmt.Printf("recovered panics: %d   cancelled transactions: %d\n", panics, canceled)
		telemetry.WriteGauges(os.Stdout)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = trace.Default.WritePerfetto(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "stmbench: trace-out:", err)
			os.Exit(1)
		}
	}
	if *jsonOut != "" {
		res := jsonResult{Result: bench.Result{
			Schema:      bench.ResultSchema,
			Structure:   *structure,
			Algorithm:   d.Name(),
			Threads:     *threads,
			InitialSize: *size,
			WritePct:    *writes,
			OpsPerTx:    *opsPerTx,
			DurationNS:  int64(*duration),
			TxPerSec:    tput,
			OpsPerSec:   tput * float64(*opsPerTx),

			AllocsPerTx:     memStats.AllocsPerTx,
			AllocBytesPerTx: memStats.AllocBytesPerTx,
			GCPauseTotalNS:  memStats.GCPauseTotalNS,
			NumGC:           memStats.NumGC,
		}}
		if err := writeJSON(*jsonOut, res, telemetry.Default.Snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "stmbench: json:", err)
			os.Exit(1)
		}
	}
}
