package txnet

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos/failpoint"
	"repro/internal/chaos/leak"
	"repro/internal/trace"
)

// syncBuffer is a mutex-guarded bytes.Buffer: the slow-request log writes
// from connection goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// spanEvents filters a recorder snapshot down to one source's events for
// one span, in publication order.
func spanEvents(evs []trace.Event, runtime string, span uint64) []trace.Event {
	var out []trace.Event
	for _, e := range evs {
		if e.Runtime == runtime && e.Span == span {
			out = append(out, e)
		}
	}
	return out
}

func stagesOf(evs []trace.Event) map[trace.Stage]uint64 {
	m := map[trace.Stage]uint64{}
	for _, e := range evs {
		if e.Kind == trace.EvStage {
			m[trace.Stage(e.Key)] += e.Arg
		}
	}
	return m
}

func findReqStart(evs []trace.Event) (trace.Event, bool) {
	for _, e := range evs {
		if e.Kind == trace.EvReqStart {
			return e, true
		}
	}
	return trace.Event{}, false
}

// TestTraceEndToEnd commits one mutating transaction against a durable
// server with the flight recorder sampling everything, and checks the
// acceptance shape: the client span and the server span share one trace id
// (the wire-propagated one), the server records execute, wal-append, fsync
// and ack stages under that id, and the client's wire stage block carries
// the server-side breakdown.
func TestTraceEndToEnd(t *testing.T) {
	leak.CheckCleanup(t)
	s := newDurableServer(t, t.TempDir(), -1)

	trace.Default.Reset()
	trace.Enable(1)
	defer func() {
		trace.Disable()
		trace.Default.Reset()
	}()

	c := newTestClient(t, s.Addr())
	var st Stages
	res, err := c.DoStages(context.Background(), []Op{
		{Code: OpAdd, Struct: 0, Key: 7},
		{Code: OpPut, Struct: 1, Key: 7, Val: 99},
	}, &st)
	if err != nil {
		t.Fatalf("DoStages: %v", err)
	}
	if !res[0].OK || !res[1].OK {
		t.Fatalf("results: %+v", res)
	}
	// The server stamps ack and closes its span after the response is on
	// the wire, so the client can get here first. A clean drain waits for
	// the handler, and the snapshot then holds the whole server span.
	c.Close()
	shutdown(t, s)

	evs := trace.Default.Snapshot()
	var span uint64
	for _, e := range evs {
		if e.Runtime == "txnet.client" && e.Kind == trace.EvReqStart {
			span = e.Span
			break
		}
	}
	if span == 0 {
		t.Fatalf("no client request span in %d events", len(evs))
	}

	client := spanEvents(evs, "txnet.client", span)
	server := spanEvents(evs, "txnet.server", span)
	if len(server) == 0 {
		t.Fatalf("server recorded no events under the client's trace id %016x", span)
	}
	start, ok := findReqStart(server)
	if !ok {
		t.Fatalf("server span %016x has no req-start", span)
	}
	if start.Arg != span {
		t.Fatalf("server parent = %016x, want the client root %016x", start.Arg, span)
	}

	cs, ss := stagesOf(client), stagesOf(server)
	if cs[trace.StageNet] == 0 {
		t.Fatalf("client recorded no net stage: %v", cs)
	}
	for _, want := range []trace.Stage{trace.StageExecute, trace.StageWALAppend, trace.StageFsync, trace.StageAck} {
		if ss[want] == 0 {
			t.Fatalf("server span missing %v stage: %v", want, ss)
		}
	}
	for _, evsSide := range [][]trace.Event{client, server} {
		if evsSide[len(evsSide)-1].Kind != trace.EvReqEnd {
			t.Fatalf("span not closed: last event %v", evsSide[len(evsSide)-1].Kind)
		}
	}

	// The wire stage block carried the server breakdown back to the client.
	if st.Total <= 0 {
		t.Fatalf("stages total %v", st.Total)
	}
	if st.D[trace.StageWALAppend] <= 0 || st.D[trace.StageFsync] <= 0 {
		t.Fatalf("wire stage block missing durability stages: %+v", st.D)
	}
	if st.D[trace.StageNet] <= 0 {
		t.Fatalf("wire stage block missing client net stage: %+v", st.D)
	}
}

// TestTraceRetryKeepsID drops the server connection after the first request
// frame is read (the request never dispatches), forcing the client's
// exactly-once resend, and checks that the retry is one trace: the resent
// request reuses the original trace id verbatim, both sides mark the resend,
// and the operation still executes exactly once.
func TestTraceRetryKeepsID(t *testing.T) {
	leak.CheckCleanup(t)
	s := newTestServer(t, Options{})

	trace.Default.Reset()
	trace.Enable(1)
	defer func() {
		trace.Disable()
		trace.Default.Reset()
	}()

	c := newTestClient(t, s.Addr())
	defer failpoint.Arm("txnet.conn.drop", failpoint.Spec{Action: failpoint.Panic, Nth: 1})()
	if ok, err := c.SetAdd(context.Background(), 0, 42); err != nil || !ok {
		t.Fatalf("add across drop: %v %v", ok, err)
	}
	if c.Stats().Resends == 0 {
		t.Fatalf("expected a resend: %+v", c.Stats())
	}

	evs := trace.Default.Snapshot()
	var clientSpans []uint64
	for _, e := range evs {
		if e.Runtime == "txnet.client" && e.Kind == trace.EvReqStart {
			clientSpans = append(clientSpans, e.Span)
		}
	}
	if len(clientSpans) != 1 {
		t.Fatalf("client opened %d request spans, want 1 (the retry must stay one trace)", len(clientSpans))
	}
	span := clientSpans[0]

	client := spanEvents(evs, "txnet.client", span)
	server := spanEvents(evs, "txnet.server", span)
	if len(server) == 0 {
		t.Fatalf("resent request did not carry trace id %016x to the server", span)
	}

	var clientResend, serverResend bool
	for _, e := range client {
		if e.Kind == trace.EvResend && e.Arg == 1 {
			clientResend = true
		}
	}
	for _, e := range server {
		if e.Kind == trace.EvResend {
			serverResend = true
		}
	}
	if !clientResend {
		t.Fatalf("client span has no resend marker")
	}
	if !serverResend {
		t.Fatalf("server span has no resend marker (flagResend not propagated)")
	}

	// Exactly once: the add committed a single time, so the key is present
	// and a second add reports it as a duplicate.
	if ok, err := c.SetContains(context.Background(), 0, 42); err != nil || !ok {
		t.Fatalf("contains: %v %v", ok, err)
	}
	if ok, err := c.SetAdd(context.Background(), 0, 42); err != nil || ok {
		t.Fatalf("re-add: ok=%v err=%v, want duplicate", ok, err)
	}
}

// TestSlowRequestLog drives one traced request through a server with a
// zero slow threshold and checks the structured line: the wire trace id,
// session/seq, and at least one stage duration.
func TestSlowRequestLog(t *testing.T) {
	leak.CheckCleanup(t)
	var buf syncBuffer
	s := newTestServer(t, Options{SlowThreshold: time.Nanosecond, SlowWriter: &buf})
	c := newTestClient(t, s.Addr())
	if ok, err := c.SetAdd(context.Background(), 0, 1); err != nil || !ok {
		t.Fatalf("add: %v %v", ok, err)
	}
	c.Close()
	s.Close()
	out := buf.String()
	if !strings.Contains(out, "txnet slow-request trace=") ||
		!strings.Contains(out, "status=ok") || !strings.Contains(out, "execute=") {
		t.Fatalf("slow log missing fields:\n%s", out)
	}
}
