package telemetry

import (
	"expvar"
	"fmt"
	"io"
	"sync"
	"text/tabwriter"

	"repro/internal/abort"
)

// Vars returns the registry's snapshot in the map shape published over
// expvar: meter name → counters, abort-reason breakdown, and latency
// summaries (mean / p50 / p99 in nanoseconds).
func (r *Registry) Vars() map[string]any {
	out := make(map[string]any)
	out["enabled"] = r.Enabled()
	for _, s := range r.Snapshot() {
		if s.Commits == 0 && s.TotalAborts() == 0 && s.Fallbacks == 0 {
			continue
		}
		aborts := make(map[string]uint64, abort.NumReasons)
		for rr := abort.Reason(0); rr < abort.NumReasons; rr++ {
			if s.Aborts[rr] != 0 {
				aborts[ReasonName(rr)] = s.Aborts[rr]
			}
		}
		out[s.Name] = map[string]any{
			"commits":        s.Commits,
			"aborts":         aborts,
			"retries":        s.Retries,
			"fallbacks":      s.Fallbacks,
			"escalations":    s.Escalations,
			"cm_policy":      s.Policy,
			"abort_rate":     s.AbortRate(),
			"tx_latency":     latencyVars(s.TxLatency),
			"commit_latency": latencyVars(s.CommitLatency),
		}
	}
	return out
}

func latencyVars(h HistogramSnapshot) map[string]any {
	return map[string]any{
		"count":   h.Total,
		"mean_ns": int64(h.Mean()),
		"p50_ns":  int64(h.Quantile(0.50)),
		"p99_ns":  int64(h.Quantile(0.99)),
	}
}

var publishOnce sync.Once

// Publish registers the Default registry under the expvar name
// "transactions", making snapshots available on /debug/vars for any process
// that serves expvar. Safe to call multiple times.
func Publish() {
	publishOnce.Do(func() {
		expvar.Publish("transactions", expvar.Func(func() any {
			return Default.Vars()
		}))
	})
}

// sectionsMu guards sections; sections holds extra table renderers appended
// after the abort-reason table (see RegisterSection).
var (
	sectionsMu sync.Mutex
	sections   []func(io.Writer)
)

// RegisterSection appends a renderer to every WriteTable output. It exists so
// observability layers above telemetry (the trace package's conflict
// attribution table) can extend the shared report without telemetry importing
// them. Renderers that have nothing to say should write nothing.
func RegisterSection(f func(io.Writer)) {
	if f == nil {
		return
	}
	sectionsMu.Lock()
	sections = append(sections, f)
	sectionsMu.Unlock()
}

// WriteTable renders the snapshots as an aligned abort-reason table, one row
// per meter with recorded activity:
//
//	algorithm   cm   commits   aborts   rate   conflict   lock-busy   invalidated   explicit   timeout   fallbacks   escalated   p50   p99
//
// It is shared by cmd/stmbench, cmd/reproduce and the bench figure drivers.
// Registered sections (RegisterSection) are appended after the table.
func WriteTable(w io.Writer, snaps []MeterSnapshot) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "algorithm\tcm\tcommits\taborts\trate")
	for r := abort.Reason(0); r < abort.NumReasons; r++ {
		fmt.Fprintf(tw, "\t%s", ReasonName(r))
	}
	fmt.Fprint(tw, "\tfallbacks\tescalated\ttx-p50\ttx-p99\tcommit-p50\n")
	for _, s := range snaps {
		if s.Commits == 0 && s.TotalAborts() == 0 && s.Fallbacks == 0 {
			continue
		}
		policy := s.Policy
		if policy == "" {
			policy = "-"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.3f", s.Name, policy, s.Commits, s.TotalAborts(), s.AbortRate())
		for r := abort.Reason(0); r < abort.NumReasons; r++ {
			fmt.Fprintf(tw, "\t%d", s.Aborts[r])
		}
		fmt.Fprintf(tw, "\t%d\t%d\t%v\t%v\t%v\n",
			s.Fallbacks, s.Escalations, s.TxLatency.Quantile(0.50), s.TxLatency.Quantile(0.99),
			s.CommitLatency.Quantile(0.50))
	}
	tw.Flush()
	sectionsMu.Lock()
	extra := sections
	sectionsMu.Unlock()
	for _, f := range extra {
		f(w)
	}
}
