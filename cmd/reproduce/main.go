// Command reproduce regenerates the tables and figures of the paper's
// evaluation sections. Each experiment prints the same rows and series the
// paper plots. It then checks the paper's ratio claims about the figures it
// generated, prints one row per claim, and exits 1 when any claim is below
// its floor. Each point of the set and queue figures is measured in five
// interleaved rounds of all its series (one with -quick), and a claim is
// judged on the median of its per-round ratios; the row prints their
// spread. The paper-shape gate is
//
//	reproduce -exp fig3.3,fig3.6,fig4.2 -threads 2 -warmup 100ms -measure 400ms -no-telemetry
//
// Usage:
//
//	reproduce -list
//	reproduce -exp fig3.3
//	reproduce -exp fig3.3,fig3.4 -threads 1,2,4,8 -measure 500ms
//	reproduce -exp all -quick
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/chaos/failpoint"
	"repro/internal/cm"
	"repro/internal/telemetry"
)

func main() {
	var (
		expFlag      = flag.String("exp", "", "experiment id(s), comma separated, or 'all'")
		listFlag     = flag.Bool("list", false, "list experiments and exit")
		quickFlag    = flag.Bool("quick", false, "use tiny measurement windows (smoke run)")
		threadsFlag  = flag.String("threads", "", "comma-separated thread sweep (default per config)")
		warmupFlag   = flag.Duration("warmup", 0, "per-point warmup (default per config)")
		measureFlag  = flag.Duration("measure", 0, "per-point measurement window (default per config)")
		telemetryOff = flag.Bool("no-telemetry", false, "disable per-experiment abort-reason telemetry tables")
		cmPolicy     = flag.String("cm", "", "contention-management policy: "+strings.Join(cm.Names(), ", "))
		cmBudget     = flag.Int("cm-budget", 0, "retry budget before serial-mode escalation (<0 disables)")
		failspec     = flag.String("failpoints", "", "fault-injection specs, 'name=action[@triggers];...' (see internal/chaos/failpoint)")
	)
	flag.Parse()

	if err := cm.Configure(*cmPolicy, *cmBudget); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(2)
	}
	if *failspec != "" {
		if err := failpoint.Apply(*failspec); err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(2)
		}
	}
	if !*telemetryOff {
		telemetry.Enable()
		telemetry.Publish()
	}

	if *listFlag {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Desc)
		}
		return
	}
	if *expFlag == "" {
		fmt.Fprintln(os.Stderr, "reproduce: -exp required (or -list); e.g. -exp fig3.3")
		os.Exit(2)
	}

	cfg := bench.Full()
	if *quickFlag {
		cfg = bench.Quick()
	}
	if *threadsFlag != "" {
		var threads []int
		for _, part := range strings.Split(*threadsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "reproduce: bad -threads value %q\n", part)
				os.Exit(2)
			}
			threads = append(threads, n)
		}
		cfg.Threads = threads
	}
	if *warmupFlag > 0 {
		cfg.Warmup = *warmupFlag
	}
	if *measureFlag > 0 {
		cfg.Measure = *measureFlag
	}

	ids := strings.Split(*expFlag, ",")
	if *expFlag == "all" {
		ids = nil
		for _, e := range bench.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	var claims strings.Builder
	held := true
	for _, id := range ids {
		e, ok := bench.Find(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "reproduce: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		f := e.Run(cfg, os.Stdout)
		fmt.Printf("[%s completed in %s]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		var swept []bench.Claim
		for _, c := range e.Claims {
			if slices.Contains(cfg.Threads, c.Threads) {
				swept = append(swept, c)
			} else {
				fmt.Fprintf(&claims, "%s %s: not checked, %d threads is not in the -threads sweep\n",
					e.ID, c.Panel, c.Threads)
			}
		}
		held = bench.CheckClaims(&claims, f, swept) && held
	}
	if claims.Len() > 0 {
		fmt.Printf("== paper-shape claims ==\n%-66s %7s %6s  verdict (spread of the per-round ratios)\n%s", "claim", "ratio", "floor", claims.String())
		if !held {
			fmt.Fprintln(os.Stderr, "reproduce: a paper-shape claim is below its floor")
			os.Exit(1)
		}
	}
}
