package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, as the benchmark sees it from
// outside. Spans of one transaction share tx; parent is the id of the span
// that caused this one (0 for a root).
type span struct {
	name       string
	id, parent uint64
	tx         uint64
	tid        int
	start, end int64 // ns since recorder epoch
}

// maxTxSpans bounds the per-transaction spans one worker keeps per window,
// so the written trace stays small enough for Perfetto to open. Coarse
// spans (set-up, slices, ladder rungs, recovery) are always kept.
const maxTxSpans = 4096

// recorder keeps spans in memory until the pass ends. A nil recorder — the
// untraced passes — records nothing.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  uint64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// newID reserves a span id.
func (r *recorder) newID() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// begin opens a coarse span and returns the function that closes it.
func (r *recorder) begin(name string, parent uint64) (id uint64, end func()) {
	if r == nil {
		return 0, func() {}
	}
	id = r.newID()
	start := r.now()
	return id, func() {
		s := span{name: name, id: id, parent: parent, start: start, end: r.now()}
		r.mu.Lock()
		r.spans = append(r.spans, s)
		r.mu.Unlock()
	}
}

// add appends spans a worker collected on its own.
func (r *recorder) add(spans []span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, spans...)
	r.mu.Unlock()
}

// write emits the spans as Chrome trace-event JSON ("X" complete events,
// µs timestamps), which ui.perfetto.dev and chrome://tracing both load.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		name, _ := json.Marshal(s.name)
		fmt.Fprintf(w, "\n"+`{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"tx":%d}}`,
			name, s.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent, s.tx)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
