// Command txload drives a txstore server with many concurrent client
// connections and reports throughput, latency percentiles and the retry
// machinery's counters (reconnects, resends, overload sheds). It is the
// many-connection companion of cmd/txstore — point it at a server, crank
// -conns up, and watch admission control and the session retry protocol
// work under load:
//
//	txload -addr localhost:7470 -conns 1000 -duration 10s
//	txload -addr localhost:7470 -conns 200 -writes 50 -ops 4 -deadline 50ms
//	txload -addr localhost:7470 -stages                       # live per-stage table
//	txload -addr localhost:7470 -trace-sample 64 \
//	       -server-debug localhost:6060 -trace-out trace.json # cross-process trace
//
// Every connection holds one session and issues transactions back to back:
// a mix of set adds/removes/contains over -keys keys, -ops operations per
// transaction. Definitive per-request failures (deadline exceeded, aborts)
// are counted, not fatal; transport failures are retried by the client
// library and show up as resends.
//
// -stages asks the server to return its per-stage breakdown on every
// response (queue, net, dispatch, admission, execute, wal-append, fsync)
// and prints a live latency table once a second. -trace-sample N samples
// 1 in N requests into the flight recorder with wire-propagated trace ids;
// -trace-out writes the recording as Perfetto trace-event JSON, and
// -server-debug additionally fetches the server's recording and merges the
// two into one timeline, so a traced commit renders with its client,
// server and WAL-fsync spans under a single trace id.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/txnet"
)

// stageHist accumulates the per-stage breakdowns returned on the wire.
// Histograms are internally sharded, so workers observe concurrently.
var stageHist [trace.NumStages]telemetry.Histogram

func main() {
	var (
		addr        = flag.String("addr", "localhost:7470", "txstore server address")
		conns       = flag.Int("conns", 100, "concurrent client connections (one session each)")
		duration    = flag.Duration("duration", 5*time.Second, "measurement window")
		writes      = flag.Int("writes", 20, "write percentage (split add/remove)")
		keys        = flag.Int64("keys", 1<<14, "key range")
		opsPerTx    = flag.Int("ops", 1, "operations per transaction")
		deadline    = flag.Duration("deadline", 0, "per-request deadline (0 = none)")
		seed        = flag.Int64("seed", 1, "workload seed")
		stages      = flag.Bool("stages", false, "request per-stage breakdowns and print a live latency table every second")
		traceSample = flag.Uint64("trace-sample", 0, "sample 1 in N requests into the flight recorder, propagating trace ids to the server (0 = off)")
		traceOut    = flag.String("trace-out", "", "write the flight recording as Perfetto trace-event JSON to this file")
		serverDebug = flag.String("server-debug", "", "server debug endpoint (host:port); fetch its recording and merge into -trace-out")
	)
	flag.Parse()

	if *traceSample > 0 {
		trace.Enable(*traceSample)
	}

	var (
		commits, deadlines, aborted atomic.Uint64
		failed                      atomic.Uint64
	)
	latCh := make(chan []time.Duration, *conns)
	stopCtx, stop := context.WithTimeout(context.Background(), *duration)
	defer stop()

	if *stages {
		go func() {
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for {
				select {
				case <-stopCtx.Done():
					return
				case <-tick.C:
					printStages(os.Stderr, "txload stages (live)")
				}
			}
		}()
	}

	var clients []*txnet.Client
	var clientsMu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := txnet.Dial(*addr, &txnet.ClientOptions{Seed: *seed + int64(i)})
			if err != nil {
				fmt.Fprintf(os.Stderr, "txload: conn %d: %v\n", i, err)
				failed.Add(1)
				return
			}
			defer c.Close()
			clientsMu.Lock()
			clients = append(clients, c)
			clientsMu.Unlock()

			rng := rand.New(rand.NewPCG(uint64(*seed), uint64(i)))
			lats := make([]time.Duration, 0, 4096)
			ops := make([]txnet.Op, *opsPerTx)
			var stg txnet.Stages
			for stopCtx.Err() == nil {
				for j := range ops {
					key := rng.Int64N(*keys)
					switch {
					case rng.IntN(100) >= *writes:
						ops[j] = txnet.Op{Code: txnet.OpContains, Struct: 0, Key: key}
					case rng.IntN(2) == 0:
						ops[j] = txnet.Op{Code: txnet.OpAdd, Struct: 0, Key: key}
					default:
						ops[j] = txnet.Op{Code: txnet.OpRemove, Struct: 0, Key: key}
					}
				}
				ctx := stopCtx
				var cancel context.CancelFunc
				if *deadline > 0 {
					ctx, cancel = context.WithTimeout(stopCtx, *deadline)
				}
				t0 := time.Now()
				var err error
				if *stages {
					_, err = c.DoStages(ctx, ops, &stg)
				} else {
					_, err = c.Do(ctx, ops)
				}
				if cancel != nil {
					cancel()
				}
				switch {
				case err == nil:
					commits.Add(1)
					lats = append(lats, time.Since(t0))
					if *stages {
						for st, d := range stg.D {
							if d > 0 {
								stageHist[st].Observe(d.Nanoseconds())
							}
						}
					}
				case errors.Is(err, txnet.ErrDeadline):
					deadlines.Add(1)
				case errors.Is(err, txnet.ErrAborted):
					aborted.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					// Refused client-side, nothing sent: the window closed
					// (stopCtx's deadline passes a moment before its Err()
					// turns non-nil) or, with -deadline, the request's own
					// budget ran out first.
					if end, _ := stopCtx.Deadline(); time.Now().Before(end) {
						deadlines.Add(1)
					}
				case stopCtx.Err() != nil:
					// window closed mid-request; not a failure
				default:
					fmt.Fprintf(os.Stderr, "txload: conn %d: %v\n", i, err)
					failed.Add(1)
					latCh <- lats
					return
				}
			}
			latCh <- lats
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(latCh)

	var lats []time.Duration
	for l := range latCh {
		lats = append(lats, l...)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })

	var reconnects, resends, overloads uint64
	clientsMu.Lock()
	for _, c := range clients {
		st := c.Stats()
		reconnects += st.Reconnects
		resends += st.Resends
		overloads += st.Overloads
	}
	clientsMu.Unlock()

	n := commits.Load()
	fmt.Printf("txload: %d conns, %v window\n", *conns, elapsed.Round(time.Millisecond))
	fmt.Printf("  commits    %12d  (%.0f tx/s)\n", n, float64(n)/elapsed.Seconds())
	fmt.Printf("  deadline   %12d\n", deadlines.Load())
	fmt.Printf("  aborted    %12d\n", aborted.Load())
	fmt.Printf("  failed     %12d\n", failed.Load())
	fmt.Printf("  reconnects %12d\n", reconnects)
	fmt.Printf("  resends    %12d\n", resends)
	fmt.Printf("  overloads  %12d\n", overloads)
	if len(lats) > 0 {
		fmt.Printf("  latency    p50 %v  p99 %v  max %v\n",
			pct(lats, 50), pct(lats, 99), lats[len(lats)-1])
	}
	if *stages {
		printStages(os.Stdout, "per-stage latency (committed requests)")
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, *serverDebug); err != nil {
			fmt.Fprintf(os.Stderr, "txload: trace: %v\n", err)
			os.Exit(1)
		}
	}
	if failed.Load() > 0 {
		os.Exit(1)
	}
}

// printStages renders the accumulated per-stage breakdown as an aligned
// table: one row per stage that recorded anything.
func printStages(w io.Writer, title string) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n  %-11s %12s %12s %12s %12s\n", title, "stage", "count", "p50", "p99", "mean")
	rows := 0
	for st := trace.Stage(0); st < trace.NumStages; st++ {
		h := stageHist[st].Snapshot()
		if h.Total == 0 {
			continue
		}
		rows++
		fmt.Fprintf(&b, "  %-11s %12d %12v %12v %12v\n",
			st, h.Total, h.Quantile(0.50), h.Quantile(0.99), h.Mean())
	}
	if rows > 0 {
		fmt.Fprint(w, b.String())
	}
}

// writeTrace dumps the local flight recording — merged with the server's
// when a debug endpoint is given — as Perfetto trace-event JSON.
func writeTrace(path, serverDebug string) error {
	local, err := trace.ExportPerfetto(trace.Default.Snapshot())
	if err != nil {
		return err
	}
	dumps := [][]byte{local}
	if serverDebug != "" {
		url := serverDebug
		if !strings.Contains(url, "://") {
			url = "http://" + url
		}
		resp, err := http.Get(url + "/debug/trace/perfetto")
		if err != nil {
			return fmt.Errorf("fetch server trace: %w", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("fetch server trace: %s", resp.Status)
		}
		remote, err := io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Errorf("fetch server trace: %w", err)
		}
		dumps = append(dumps, remote)
	}
	merged, err := trace.MergePerfetto(dumps...)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, merged, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "txload: wrote %s (load in ui.perfetto.dev)\n", path)
	return nil
}

// pct reads the p-th percentile from a sorted latency slice.
func pct(sorted []time.Duration, p int) time.Duration {
	idx := len(sorted) * p / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
