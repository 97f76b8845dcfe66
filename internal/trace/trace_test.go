package trace

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/abort"
)

// fakeClock returns a deterministic recorder clock ticking by step.
func fakeClock(step int64) func() int64 {
	var t atomic.Int64
	return func() int64 { return t.Add(step) }
}

func newTestRecorder(t *testing.T, nrings, slots int) *Recorder {
	t.Helper()
	r := NewRecorderSized(nrings, slots)
	r.SetClock(fakeClock(10))
	return r
}

func TestDisabledRecordsNothing(t *testing.T) {
	r := newTestRecorder(t, 1, 64)
	l := r.Source("NOrec").Local()
	l.TxStart()
	l.AttemptStart()
	l.Op(7)
	l.LockBusy(7)
	l.Abort(abort.LockBusy)
	l.TxEnd()
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("disabled recorder captured %d events", len(got))
	}
	if got := r.Conflicts(0); len(got) != 0 {
		t.Fatalf("disabled recorder attributed %d conflicts", len(got))
	}
	if got := r.LastAborts(10); len(got) != 0 {
		t.Fatalf("disabled recorder logged %d aborts", len(got))
	}
}

func TestNilSafety(t *testing.T) {
	var s *Source
	if s.Name() != "" {
		t.Fatal("nil source name")
	}
	l := s.Local()
	if l != nil {
		t.Fatal("nil source must hand out nil locals")
	}
	l.TxStart()
	l.AttemptStart()
	l.Op(1)
	l.Lock(1)
	l.Unlock(1)
	l.Validated()
	l.CommitBegin()
	l.CommitEnd()
	l.LockBusy(1)
	l.ValidateFail(1)
	l.NoteKey(1)
	l.Abort(abort.Conflict)
	l.HWAttempt(1)
	l.Fallback()
	l.Escalated()
	l.QueueWait(l.Now())
	l.Execute(0)
	l.TxEnd()
	var r *Recorder
	r.SetEnabled(true)
	r.SetSampleEvery(4)
	if r.Enabled() || r.Source("x") != nil || r.Snapshot() != nil {
		t.Fatal("nil recorder must be inert")
	}
	r.Reset()
}

func TestLifecycleEvents(t *testing.T) {
	r := newTestRecorder(t, 1, 256)
	r.SetEnabled(true)
	l := r.Source("OTB-list").Local()

	l.TxStart()
	l.AttemptStart()
	l.Op(41)
	l.LockBusy(41)
	l.Abort(abort.LockBusy)
	l.AttemptStart() // emits the CM pause for the gap after the abort
	l.Op(41)
	l.Lock(41)
	l.Validated()
	l.CommitBegin()
	l.CommitEnd()
	l.Unlock(41)
	l.TxEnd()

	evs := r.Snapshot()
	var kinds []string
	for _, e := range evs {
		kinds = append(kinds, e.Kind.String())
		if e.Runtime != "OTB-list" {
			t.Fatalf("event %v has runtime %q", e.Kind, e.Runtime)
		}
		if e.Span == 0 {
			t.Fatalf("event %v missing span", e.Kind)
		}
	}
	want := "tx-start attempt read lock-busy abort cm-pause attempt read lock validate commit commit-end unlock tx-end"
	if got := strings.Join(kinds, " "); got != want {
		t.Fatalf("event sequence\n got: %s\nwant: %s", got, want)
	}

	// The abort carries the attributed key and the attempt's lifetime.
	for _, e := range evs {
		switch e.Kind {
		case EvAbort:
			if e.Key != 41 || e.Reason != abort.LockBusy || e.Arg == 0 {
				t.Fatalf("abort event = %+v", e)
			}
			if e.Attempt != 1 {
				t.Fatalf("abort on attempt %d, want 1", e.Attempt)
			}
		case EvPause:
			if e.Arg == 0 {
				t.Fatal("cm-pause without duration")
			}
		}
	}

	// Monotone publication order.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("snapshot out of order at %d", i)
		}
	}
}

func TestSampling(t *testing.T) {
	r := newTestRecorder(t, 1, 1024)
	r.SetEnabled(true)
	r.SetSampleEvery(4)
	l := r.Source("NOrec").Local()
	sampled := 0
	for i := 0; i < 100; i++ {
		l.TxStart()
		if l.span != 0 {
			sampled++
		}
		l.AttemptStart()
		l.TxEnd()
	}
	if sampled != 25 {
		t.Fatalf("sampled %d of 100 transactions at 1/4", sampled)
	}
	var starts int
	for _, e := range r.Snapshot() {
		if e.Kind == EvTxStart {
			starts++
		}
	}
	if starts != 25 {
		t.Fatalf("recorded %d tx-starts, want 25", starts)
	}
}

// TestUnsampledAttribution: conflict attribution covers every transaction
// while the recorder is enabled, not just sampled ones.
func TestUnsampledAttribution(t *testing.T) {
	r := newTestRecorder(t, 1, 64)
	r.SetEnabled(true)
	r.SetSampleEvery(1 << 30) // effectively sample nothing
	l := r.Source("TL2").Local()
	for i := 0; i < 10; i++ {
		l.TxStart()
		l.ValidateFail(99)
		l.Abort(abort.Conflict)
		l.TxEnd()
	}
	entries := r.Conflicts(0)
	if len(entries) != 1 || entries[0].Key != 99 || entries[0].Aborts != 10 {
		t.Fatalf("conflict entries = %+v", entries)
	}
	if entries[0].WaitNS != 0 {
		t.Fatal("unsampled aborts must not invent wait time")
	}
}

func TestConflictTopK(t *testing.T) {
	r := newTestRecorder(t, 1, 64)
	r.SetEnabled(true)
	l := r.Source("OTB-list").Local()
	charge := func(key uint64, n int) {
		for i := 0; i < n; i++ {
			l.TxStart()
			l.AttemptStart() // stamps the attempt so the abort has a lifetime
			l.LockBusy(key)
			l.Abort(abort.LockBusy)
			l.TxEnd()
		}
	}
	charge(5, 30)
	charge(9, 10)
	charge(2, 20)
	top := r.Conflicts(2)
	if len(top) != 2 || top[0].Key != 5 || top[0].Aborts != 30 || top[1].Key != 2 {
		t.Fatalf("top-2 = %+v", top)
	}
	if top[0].WaitNS == 0 {
		t.Fatal("sampled aborts must accumulate wait time")
	}
	if all := r.Conflicts(0); len(all) != 3 {
		t.Fatalf("full table has %d entries, want 3", len(all))
	}
}

func TestAbortLog(t *testing.T) {
	r := newTestRecorder(t, 1, 4096)
	r.SetEnabled(true)
	l := r.Source("RInval").Local()
	const n = 100
	for i := 0; i < n; i++ {
		l.TxStart()
		l.NoteKey(uint64(i + 1))
		l.Abort(abort.Invalidated)
		l.TxEnd()
	}
	recs := r.LastAborts(5)
	if len(recs) != 5 {
		t.Fatalf("got %d abort records", len(recs))
	}
	// Oldest-first tail of the full sequence.
	for i, rec := range recs {
		wantKey := uint64(n - 4 + i)
		if rec.Key != wantKey || rec.Runtime != "RInval" || rec.Reason != abort.Invalidated {
			t.Fatalf("record %d = %+v, want key %d", i, rec, wantKey)
		}
	}
	var sb strings.Builder
	r.WriteAborts(&sb, 3)
	if !strings.Contains(sb.String(), "invalidated") {
		t.Fatalf("abort dump missing reason:\n%s", sb.String())
	}
}

// TestRingWrap: a ring smaller than the history keeps only the newest events
// and every surviving slot decodes cleanly.
func TestRingWrap(t *testing.T) {
	r := newTestRecorder(t, 1, 8)
	r.SetEnabled(true)
	l := r.Source("NOrec").Local()
	for i := 0; i < 100; i++ {
		l.TxStart()
		l.TxEnd()
	}
	evs := r.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("wrapped ring holds %d events, want 8", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("wrapped ring lost interior events: %d -> %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	if evs[len(evs)-1].Seq != 200 {
		t.Fatalf("newest event has seq %d, want 200", evs[len(evs)-1].Seq)
	}
}

// TestSnapshotUnderLoad runs writers concurrently with snapshot readers and
// checks every decoded event is well-formed (the seqlock skips torn slots,
// it must never surface a half-written one).
func TestSnapshotUnderLoad(t *testing.T) {
	r := NewRecorderSized(4, 64) // small rings force constant wrapping
	r.SetClock(fakeClock(1))
	r.SetEnabled(true)
	src := r.Source("OTB-skip")
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			l := src.Local()
			for i := 0; i < 50 || !stop.Load(); i++ {
				l.TxStart()
				l.AttemptStart()
				l.Op(id + 1)
				l.LockBusy(id + 1)
				l.Abort(abort.LockBusy)
				l.AttemptStart()
				l.CommitBegin()
				l.CommitEnd()
				l.TxEnd()
			}
		}(uint64(w))
	}
	for i := 0; i < 200; i++ {
		for _, e := range r.Snapshot() {
			if e.Kind >= numKinds {
				t.Errorf("decoded torn kind %d", e.Kind)
			}
			if e.Runtime != "OTB-skip" {
				t.Errorf("decoded torn source %q", e.Runtime)
			}
			if e.Kind == EvAbort && (e.Key < 1 || e.Key > 4) {
				t.Errorf("decoded torn key %d", e.Key)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if entries := r.Conflicts(0); len(entries) != 4 {
		t.Fatalf("conflict table has %d keys, want 4", len(entries))
	}
}

func TestReset(t *testing.T) {
	r := newTestRecorder(t, 2, 64)
	r.SetEnabled(true)
	l := r.Source("TML").Local()
	l.TxStart()
	l.NoteKey(3)
	l.Abort(abort.Conflict)
	l.TxEnd()
	if len(r.Snapshot()) == 0 || len(r.Conflicts(0)) == 0 || len(r.LastAborts(1)) == 0 {
		t.Fatal("setup recorded nothing")
	}
	r.Reset()
	if len(r.Snapshot()) != 0 || len(r.Conflicts(0)) != 0 || len(r.LastAborts(1)) != 0 {
		t.Fatal("reset left residue")
	}
	// Spans keep advancing across Reset so windows never alias.
	l.TxStart()
	if l.span != 2 {
		t.Fatalf("span after reset = %d, want 2", l.span)
	}
	l.TxEnd()
}

func TestConflictTableOverflow(t *testing.T) {
	var tbl conflictTable
	for k := uint64(1); k <= conflictSlots*2; k++ {
		tbl.note(k, 0)
	}
	if tbl.overflow.Load() == 0 {
		t.Fatal("past-capacity attribution must count overflow")
	}
}

func TestServeEndpoints(t *testing.T) {
	r := newTestRecorder(t, 1, 64)
	r.SetEnabled(true)
	l := r.Source("OTB-list").Local()
	l.TxStart()
	l.AttemptStart()
	l.LockBusy(17)
	l.Abort(abort.LockBusy)
	l.TxEnd()

	srv, err := ServeRecorder("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(b)
	}

	if body := get("/debug/trace"); !strings.Contains(body, "flight recorder: enabled=true") {
		t.Fatalf("/debug/trace:\n%s", body)
	}
	if body := get("/debug/trace/conflicts"); !strings.Contains(body, "17") {
		t.Fatalf("/debug/trace/conflicts missing hot key:\n%s", body)
	}
	if body := get("/debug/trace/aborts"); !strings.Contains(body, "lock-busy") {
		t.Fatalf("/debug/trace/aborts missing reason:\n%s", body)
	}
	if body := get("/debug/trace/perfetto"); !strings.Contains(body, `"traceEvents"`) {
		t.Fatalf("/debug/trace/perfetto not trace-event JSON:\n%.200s", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, "transactions") {
		t.Fatalf("/debug/vars missing telemetry:\n%.200s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ index:\n%.200s", body)
	}
}

// TestWriteTableSection: the Default recorder's conflict table rides along
// with telemetry.WriteTable output once it has attributions.
func TestWriteTableSection(t *testing.T) {
	Default.Reset()
	defer func() {
		Disable()
		Default.Reset()
	}()
	Enable(1)
	l := S("section-test").Local()
	l.TxStart()
	l.LockBusy(123)
	l.Abort(abort.LockBusy)
	l.TxEnd()

	var sb strings.Builder
	writeConflictEntries(&sb, Default.Conflicts(10))
	if !strings.Contains(sb.String(), "123") || !strings.Contains(sb.String(), "section-test") {
		t.Fatalf("conflict section:\n%s", sb.String())
	}
}

func TestQueueWaitExecute(t *testing.T) {
	r := newTestRecorder(t, 1, 64)
	r.SetEnabled(true)
	l := r.Source("RTC").Local()
	l.TxStart()
	start := l.Now()
	if start == 0 {
		t.Fatal("Now returned zero for a sampled span")
	}
	l.QueueWait(start)
	l.Execute(l.Now())
	l.TxEnd()
	var sawWait, sawExec bool
	for _, e := range r.Snapshot() {
		switch e.Kind {
		case EvQueueWait:
			sawWait = e.Arg > 0
		case EvExecute:
			sawExec = e.Arg > 0
		}
	}
	if !sawWait || !sawExec {
		t.Fatalf("queue-wait=%v execute=%v", sawWait, sawExec)
	}
}
