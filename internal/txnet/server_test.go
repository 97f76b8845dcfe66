package txnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos/leak"
	"repro/internal/cm"
)

// rawConn is a test helper speaking the wire protocol directly, for
// exercising server semantics the client library deliberately hides
// (stale sequence numbers, raw statuses, replays).
type rawConn struct {
	t    *testing.T
	c    net.Conn
	br   *bufio.Reader
	sess uint64
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{t: t, c: c, br: bufio.NewReader(c)}
}

func (r *rawConn) hello(id uint64) response {
	r.t.Helper()
	resp := r.send(appendHello(nil, id))
	if resp.status == StatusHello {
		r.sess = resp.sessionID
	}
	return resp
}

func (r *rawConn) send(frame []byte) response {
	r.t.Helper()
	resp, err := r.roundTrip(frame)
	if err != nil {
		r.t.Fatal(err)
	}
	return resp
}

// roundTrip is send returning its error instead of failing the test, for
// helper goroutines, where t.Fatal must not be called.
func (r *rawConn) roundTrip(frame []byte) (response, error) {
	if _, err := r.c.Write(frame); err != nil {
		return response{}, fmt.Errorf("write: %w", err)
	}
	frame, err := readFrame(r.br, nil)
	if err != nil {
		return response{}, fmt.Errorf("read: %w", err)
	}
	resp, err := parseResponse(frame)
	if err != nil {
		return response{}, fmt.Errorf("parse: %w", err)
	}
	return resp, nil
}

func (r *rawConn) txn(seq uint64, deadline time.Duration, ops ...Op) response {
	r.t.Helper()
	return r.send(appendTxn(nil, r.sess, seq, deadline, 0, 0, 0, ops))
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := Listen("127.0.0.1:0", opts)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestServerBasicOps(t *testing.T) {
	leak.CheckCleanup(t)
	s := newTestServer(t, Options{})
	rc := dialRaw(t, s.Addr())
	if h := rc.hello(0); h.status != StatusHello || h.sessionID == 0 || h.lastSeq != 0 {
		t.Fatalf("hello: %+v", h)
	}

	// One batch across all three structures, atomically.
	resp := rc.txn(1, 0,
		Op{Code: OpAdd, Struct: 0, Key: 5},         // set add
		Op{Code: OpPut, Struct: 1, Key: 9, Val: 3}, // map put
		Op{Code: OpAdd, Struct: 2, Key: 11},        // pq add
	)
	if resp.status != StatusOK {
		t.Fatalf("batch: %+v", resp)
	}
	for i, r := range resp.results {
		if !r.OK {
			t.Fatalf("op %d not applied: %+v", i, r)
		}
	}

	resp = rc.txn(2, 0,
		Op{Code: OpContains, Struct: 0, Key: 5},
		Op{Code: OpGet, Struct: 1, Key: 9},
		Op{Code: OpRemoveMin, Struct: 2},
	)
	if resp.status != StatusOK {
		t.Fatalf("read batch: %+v", resp)
	}
	if !resp.results[0].OK {
		t.Error("set lost key 5")
	}
	if !resp.results[1].OK || resp.results[1].Out != 3 {
		t.Errorf("map: %+v", resp.results[1])
	}
	if !resp.results[2].OK || int64(resp.results[2].Out) != 11 {
		t.Errorf("pq min: %+v", resp.results[2])
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestServerExactlyOnceReplay(t *testing.T) {
	leak.CheckCleanup(t)
	s := newTestServer(t, Options{})
	rc := dialRaw(t, s.Addr())
	rc.hello(0)

	first := rc.txn(1, 0, Op{Code: OpAdd, Struct: 0, Key: 7})
	if first.status != StatusOK || !first.results[0].OK {
		t.Fatalf("first add: %+v", first)
	}
	// Retrying the same seq must replay the cached commit — results say
	// "inserted" even though the key is now present, because the response is
	// the original one, and the add must not apply twice.
	replay := rc.txn(1, 0, Op{Code: OpAdd, Struct: 0, Key: 7})
	if replay.status != StatusOK || !replay.results[0].OK {
		t.Fatalf("replay: %+v", replay)
	}
	if got := s.Stats().Replays; got != 1 {
		t.Fatalf("replays: %d want 1", got)
	}
	// A genuinely new add of the same key observes it present exactly once.
	fresh := rc.txn(2, 0, Op{Code: OpAdd, Struct: 0, Key: 7})
	if fresh.status != StatusOK || fresh.results[0].OK {
		t.Fatalf("second real add should report duplicate: %+v", fresh)
	}
}

func TestServerReplaySurvivesReconnect(t *testing.T) {
	leak.CheckCleanup(t)
	s := newTestServer(t, Options{})
	rc := dialRaw(t, s.Addr())
	rc.hello(0)
	if resp := rc.txn(1, 0, Op{Code: OpAdd, Struct: 0, Key: 1}); resp.status != StatusOK {
		t.Fatalf("add: %+v", resp)
	}
	sess := rc.sess
	rc.c.Close()

	rc2 := dialRaw(t, s.Addr())
	if h := rc2.hello(sess); h.status != StatusHello || h.sessionID != sess || h.lastSeq != 1 {
		t.Fatalf("resume: %+v", h)
	}
	replay := rc2.txn(1, 0, Op{Code: OpAdd, Struct: 0, Key: 1})
	if replay.status != StatusOK || !replay.results[0].OK {
		t.Fatalf("replay after reconnect: %+v", replay)
	}
	if s.Stats().Replays != 1 {
		t.Fatalf("replays: %d", s.Stats().Replays)
	}
}

func TestServerSeqValidation(t *testing.T) {
	leak.CheckCleanup(t)
	s := newTestServer(t, Options{})
	rc := dialRaw(t, s.Addr())
	rc.hello(0)

	if resp := rc.txn(0, 0, Op{Code: OpAdd, Struct: 0, Key: 1}); resp.status != StatusBadRequest {
		t.Fatalf("seq 0: %+v", resp)
	}
	if resp := rc.txn(5, 0, Op{Code: OpAdd, Struct: 0, Key: 1}); resp.status != StatusOK {
		t.Fatalf("seq gap should execute: %+v", resp)
	}
	if resp := rc.txn(3, 0, Op{Code: OpAdd, Struct: 0, Key: 1}); resp.status != StatusBadRequest {
		t.Fatalf("stale seq: %+v", resp)
	}
}

func TestServerUnknownSessionAndBadOps(t *testing.T) {
	leak.CheckCleanup(t)
	s := newTestServer(t, Options{})
	rc := dialRaw(t, s.Addr())

	if h := rc.hello(999); h.status != StatusBadRequest {
		t.Fatalf("unknown session hello: %+v", h)
	}
	rc2 := dialRaw(t, s.Addr())
	rc2.sess = 999
	if resp := rc2.txn(1, 0, Op{Code: OpAdd, Struct: 0, Key: 1}); resp.status != StatusBadRequest {
		t.Fatalf("unknown session txn: %+v", resp)
	}

	rc3 := dialRaw(t, s.Addr())
	rc3.hello(0)
	// Op code out of range, structure out of range, kind mismatch: all
	// BadRequest, none applied.
	for _, op := range []Op{
		{Code: numOpCodes, Struct: 0, Key: 1},
		{Code: OpAdd, Struct: 99, Key: 1},
		{Code: OpPut, Struct: 0, Key: 1}, // put on a set
	} {
		if resp := rc3.txn(1, 0, op); resp.status != StatusBadRequest {
			t.Fatalf("op %+v: %+v", op, resp)
		}
	}
	// The failed batch applied nothing and didn't advance the seq window.
	if resp := rc3.txn(1, 0, Op{Code: OpContains, Struct: 0, Key: 1}); resp.status != StatusOK || resp.results[0].OK {
		t.Fatalf("key leaked from failed batch: %+v", resp)
	}
}

// blockingStore parks Exec until released, for deadline/overload/drain
// tests. Exec returns ctx.Err() if the context dies first.
type blockingStore struct {
	mu      sync.Mutex
	waiting chan struct{} // receives one token per parked Exec
	release chan struct{}
}

func newBlockingStore() *blockingStore {
	return &blockingStore{
		waiting: make(chan struct{}, 1024),
		release: make(chan struct{}),
	}
}

func (b *blockingStore) NumStructs() int { return 1 }

func (b *blockingStore) Exec(ctx context.Context, ops []Op, res []OpResult) error {
	b.waiting <- struct{}{}
	b.mu.Lock()
	release := b.release
	b.mu.Unlock()
	select {
	case <-release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (b *blockingStore) releaseAll() {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case <-b.release:
	default:
		close(b.release)
	}
}

func TestServerDeadline(t *testing.T) {
	leak.CheckCleanup(t)
	st := newBlockingStore()
	defer st.releaseAll()
	s := newTestServer(t, Options{Store: st})
	rc := dialRaw(t, s.Addr())
	rc.hello(0)

	resp := rc.txn(1, 5*time.Millisecond, Op{Code: OpAdd, Struct: 0, Key: 1})
	if resp.status != StatusDeadline {
		t.Fatalf("want deadline-exceeded, got %+v", resp)
	}
	if s.Stats().Deadline != 1 {
		t.Fatalf("deadline counter: %d", s.Stats().Deadline)
	}
	// The failed request left no cache entry: the same seq re-executes.
	st.releaseAll()
	if resp := rc.txn(1, 0, Op{Code: OpAdd, Struct: 0, Key: 1}); resp.status != StatusOK {
		t.Fatalf("reissue after deadline: %+v", resp)
	}
	if s.Stats().Replays != 0 {
		t.Fatalf("deadline response must not be cached (replays %d)", s.Stats().Replays)
	}
}

func TestServerOverload(t *testing.T) {
	leak.CheckCleanup(t)
	st := newBlockingStore()
	defer st.releaseAll()
	s := newTestServer(t, Options{Store: st, MaxInflight: 1, AdmissionPatience: time.Millisecond})

	occupier := dialRaw(t, s.Addr())
	occupier.hello(0)
	occDone := make(chan response, 1)
	go func() {
		occDone <- occupier.txn(1, 0, Op{Code: OpAdd, Struct: 0, Key: 1})
	}()
	<-st.waiting // the only slot is now held

	rc := dialRaw(t, s.Addr())
	rc.hello(0)
	resp := rc.txn(1, 0, Op{Code: OpAdd, Struct: 0, Key: 2})
	if resp.status != StatusOverloaded {
		t.Fatalf("want overloaded, got %+v", resp)
	}
	if resp.retryAfter < time.Millisecond {
		t.Fatalf("retry-after hint too small: %v", resp.retryAfter)
	}
	if s.Stats().Shed != 1 {
		t.Fatalf("shed counter: %d", s.Stats().Shed)
	}

	st.releaseAll()
	if occ := <-occDone; occ.status != StatusOK {
		t.Fatalf("occupier: %+v", occ)
	}
	// Slot free again: the shed request's retry goes through, same seq.
	if resp := rc.txn(1, 0, Op{Code: OpAdd, Struct: 0, Key: 2}); resp.status != StatusOK {
		t.Fatalf("retry after shed: %+v", resp)
	}
}

func TestServerSerialModeSheds(t *testing.T) {
	leak.CheckCleanup(t)
	st := newBlockingStore()
	defer st.releaseAll()
	s := newTestServer(t, Options{Store: st, MaxInflight: 1, AdmissionPatience: time.Minute})

	occupier := dialRaw(t, s.Addr())
	occupier.hello(0)
	occDone := make(chan response, 1)
	go func() {
		occDone <- occupier.txn(1, 0, Op{Code: OpAdd, Struct: 0, Key: 1})
	}()
	<-st.waiting

	// With the contention manager escalated to serial mode, a full server
	// sheds instantly instead of waiting out the (deliberately huge)
	// admission patience.
	mgr := cm.New(cm.Backoff, cm.DefaultBudget)
	mgr.Escalate()
	rc := dialRaw(t, s.Addr())
	rc.hello(0)
	start := time.Now()
	resp := rc.txn(1, 0, Op{Code: OpAdd, Struct: 0, Key: 2})
	shedIn := time.Since(start)
	mgr.Release()

	if resp.status != StatusOverloaded {
		t.Fatalf("want overloaded, got %+v", resp)
	}
	if shedIn > 10*time.Second {
		t.Fatalf("serial-mode shed waited %v (patience leak)", shedIn)
	}
	st.releaseAll()
	if occ := <-occDone; occ.status != StatusOK {
		t.Fatalf("occupier: %+v", occ)
	}
}

func TestServerGracefulDrain(t *testing.T) {
	leak.CheckCleanup(t)
	st := newBlockingStore()
	s := newTestServer(t, Options{Store: st})
	rc := dialRaw(t, s.Addr())
	rc.hello(0)

	inflight := make(chan response, 1)
	go func() {
		inflight <- rc.txn(1, 0, Op{Code: OpAdd, Struct: 0, Key: 1})
	}()
	<-st.waiting

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	// Give the drain a moment to close the listener, then finish the
	// in-flight transaction: it must commit and be answered.
	time.Sleep(20 * time.Millisecond)
	st.releaseAll()

	if err := <-shutdownErr; err != nil {
		t.Fatalf("graceful drain: %v", err)
	}
	if resp := <-inflight; resp.status != StatusOK {
		t.Fatalf("in-flight during drain: %+v", resp)
	}
	if _, err := net.DialTimeout("tcp", s.Addr(), 100*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

func TestServerDrainDeadline(t *testing.T) {
	leak.CheckCleanup(t)
	st := newBlockingStore()
	defer st.releaseAll()
	s := newTestServer(t, Options{Store: st})
	rc := dialRaw(t, s.Addr())
	rc.hello(0)

	inflight := make(chan response, 1)
	go func() {
		inflight <- rc.txn(1, 0, Op{Code: OpAdd, Struct: 0, Key: 1})
	}()
	<-st.waiting

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := s.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain deadline: err = %v", err)
	}
	// The straggler was cancelled and told the server is gone.
	if resp := <-inflight; resp.status != StatusShutdown {
		t.Fatalf("straggler: %+v", resp)
	}
}

func TestServerRefusesNewWorkWhileDraining(t *testing.T) {
	leak.CheckCleanup(t)
	st := newBlockingStore()
	s := newTestServer(t, Options{Store: st})
	rc := dialRaw(t, s.Addr())
	rc.hello(0)

	// A second session on its own connection, opened before the drain: a
	// session's requests serialize, so the probe must not queue behind the
	// parked transaction.
	probe := dialRaw(t, s.Addr())
	probe.hello(0)

	inflight := make(chan response, 1)
	go func() {
		inflight <- rc.txn(1, 0, Op{Code: OpAdd, Struct: 0, Key: 1})
	}()
	<-st.waiting

	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	// Let the drain flag settle; a probe racing ahead of it merely parks in
	// the store until the drain cancels it, which the loop also tolerates.
	time.Sleep(20 * time.Millisecond)
	// Existing connections stay usable during the drain, but new
	// transactions on them are refused.
	deadline := time.Now().Add(2 * time.Second)
	for seq := uint64(1); ; seq++ { // fresh seq each probe, or replays mask the drain
		resp := probe.txn(seq, 0, Op{Code: OpAdd, Struct: 0, Key: 2})
		if resp.status == StatusShutdown {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain never refused new work: %+v", resp)
		}
	}
	st.releaseAll()
	<-inflight
	<-done
}

func TestSessionSweep(t *testing.T) {
	leak.CheckCleanup(t)
	tbl := newSessionTable(time.Hour)
	a := tbl.open()
	tbl.open()
	if tbl.len() != 2 {
		t.Fatalf("len: %d", tbl.len())
	}
	if n := tbl.sweep(time.Now()); n != 0 {
		t.Fatalf("fresh sessions swept: %d", n)
	}
	if n := tbl.sweep(time.Now().Add(2 * time.Hour)); n != 2 {
		t.Fatalf("idle sessions kept: swept %d", n)
	}
	if _, ok := tbl.lookup(a.id); ok {
		t.Fatal("swept session still resolvable")
	}
}

func TestAdmissionRetryAfterClamps(t *testing.T) {
	a := newAdmission(2, time.Millisecond)
	if d := a.retryAfter(); d != time.Millisecond {
		t.Fatalf("cold hint: %v", d)
	}
	a.ewmaNs.Store(uint64(10 * time.Second))
	if d := a.retryAfter(); d != 2*time.Second {
		t.Fatalf("hot hint not clamped: %v", d)
	}
}
