package trace

import (
	"fmt"
	"io"
	"slices"
	"text/tabwriter"
	"time"
)

// LastAborts returns the newest n sampled aborts the rings still hold,
// oldest first: the EvAbort events of Snapshot. The rings are the only
// record, so the tail reaches back as far as the rings' depth.
func (r *Recorder) LastAborts(n int) []Event {
	evs := r.Snapshot()
	var out []Event
	for i := len(evs) - 1; i >= 0 && len(out) < n; i-- {
		if evs[i].Kind == EvAbort {
			out = append(out, evs[i])
		}
	}
	slices.Reverse(out)
	return out
}

// WriteAborts renders the last-n-aborts dump as aligned text, oldest
// first — the plain-text failure-triage view.
func (r *Recorder) WriteAborts(w io.Writer, n int) {
	recs := r.LastAborts(n)
	if len(recs) == 0 {
		fmt.Fprintln(w, "aborts: none recorded")
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "ts\talgorithm\tspan\tattempt\treason\tkey\n")
	for _, rec := range recs {
		key := "-"
		if rec.Key != 0 {
			key = fmt.Sprintf("%d", rec.Key)
		}
		fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%s\t%s\n",
			rec.TS, rec.Runtime, rec.Span, rec.Attempt, rec.Reason, key)
	}
	tw.Flush()
}

// nsDuration formats a nanosecond count as a duration.
func nsDuration(ns uint64) time.Duration { return time.Duration(ns) }
