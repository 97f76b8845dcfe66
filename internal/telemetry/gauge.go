package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"text/tabwriter"
)

// Gauge is a named instantaneous value — the "current level" complement to
// the meters' monotone counters (live version-chain length, queue depth,
// pool occupancy). Unlike meters, gauges are not sharded: they are written
// by one maintenance goroutine (a GC sweep, a sampler), not by transaction
// hot paths, so a single padded atomic is enough. A nil *Gauge is a valid
// no-op recorder.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Name returns the gauge's name.
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// gaugeMu guards the package gauge table. Gauges are process-global (like
// meter names): every caller of G with the same name shares one gauge.
var (
	gaugeMu sync.Mutex
	gauges  = map[string]*Gauge{}
)

// G returns the process-wide gauge with the given name, creating it on
// first use.
func G(name string) *Gauge {
	gaugeMu.Lock()
	defer gaugeMu.Unlock()
	g, ok := gauges[name]
	if !ok {
		g = &Gauge{name: name}
		gauges[name] = g
	}
	return g
}

// GaugeVars returns a snapshot of every gauge, keyed by name.
func GaugeVars() map[string]int64 {
	gaugeMu.Lock()
	defer gaugeMu.Unlock()
	out := make(map[string]int64, len(gauges))
	for name, g := range gauges {
		out[name] = g.Load()
	}
	return out
}

// WriteGauges renders the gauges as an aligned two-column table, sorted by
// name. It writes nothing when no gauge exists, so report pipelines can call
// it unconditionally after WriteTable.
func WriteGauges(w io.Writer) {
	vars := GaugeVars()
	if len(vars) == 0 {
		return
	}
	names := make([]string, 0, len(vars))
	for name := range vars {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "gauge\tvalue\n")
	for _, name := range names {
		fmt.Fprintf(tw, "%s\t%d\n", name, vars[name])
	}
	tw.Flush()
}
