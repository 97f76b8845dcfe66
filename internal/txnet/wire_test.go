package txnet

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos/failpoint"
	"repro/internal/chaos/leak"
	"repro/internal/race"
)

// countConn counts Write calls: with TCP_NODELAY each one is a syscall and a
// loopback segment of its own, which is the cost the framing discipline (one
// frame, one Write) exists to bound.
type countConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countListener hands the server counting conns.
type countListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countConn{c, l.writes}, nil
}

// nullStore commits without doing anything, leaving only the wire's own work.
type nullStore struct{}

func (nullStore) Exec(context.Context, []Op, []OpResult) error { return nil }
func (nullStore) NumStructs() int                              { return 3 }

func TestOneWritePerFrame(t *testing.T) {
	leak.CheckCleanup(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var client, server atomic.Int64
	s := Serve(countListener{ln, &server}, Options{})
	t.Cleanup(func() { s.Close() })
	c, err := dial(s.Addr(), &ClientOptions{Seed: 1}, func(conn net.Conn) net.Conn {
		return countConn{conn, &client}
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, want int64) {
		t.Helper()
		// The server counts before it writes and the client has read the
		// response, so both counters are final here.
		if cw, sw := client.Load(), server.Load(); cw != want || sw != want {
			t.Fatalf("after %s: client made %d writes, server %d; want %d each", what, cw, sw, want)
		}
	}
	check("hello", 1)

	const n = 50
	ctx := context.Background()
	for i := int64(0); i < n; i++ {
		if ok, err := c.SetAdd(ctx, 0, i); err != nil || !ok {
			t.Fatalf("add %d: %v %v", i, ok, err)
		}
	}
	check("single-op transactions", 1+n)
	if _, err := c.Do(ctx, []Op{{Code: OpContains, Key: 1}, {Code: OpPut, Struct: 1, Key: 2, Val: 3}, {Code: OpMin, Struct: 2}}); err != nil {
		t.Fatal(err)
	}
	check("a three-op transaction", 2+n)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	check("bye", 3+n)
	if st := s.Stats(); st.Commits != n+1 || st.Conns != 1 {
		t.Fatalf("server stats: %+v", st)
	}
}

// wireAllocBudget is the measured cost of one loopback transaction, client
// and server together: the []OpResult handed to the caller is the one
// allocation left. A change that brings back a per-request buffer on either
// side fails here.
const wireAllocBudget = 1

func TestWireAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	s := newTestServer(t, Options{Store: nullStore{}})
	c := newTestClient(t, s.Addr())
	ctx := context.Background()
	ops := []Op{{Code: OpGet, Struct: 1, Key: 7}}
	do := func() {
		if _, err := c.Do(ctx, ops); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		do() // grow both ends' buffers
	}
	// AllocsPerRun counts the whole process, so the server's goroutine is in.
	got := testing.AllocsPerRun(2000, do)
	t.Logf("%.2f allocations per loopback transaction", got)
	if got > wireAllocBudget {
		t.Fatalf("%.2f allocations per loopback transaction, budget %d", got, wireAllocBudget)
	}
}

// lateCtx is the end-of-window race made deterministic: a WithTimeout
// context's Deadline() is in the past a moment before its timer makes Err()
// non-nil. Here Err() turns non-nil once Deadline() has been consulted.
type lateCtx struct {
	context.Context
	asked atomic.Bool
}

func (c *lateCtx) Deadline() (time.Time, bool) {
	c.asked.Store(true)
	return time.Now().Add(-time.Millisecond), true
}

func (c *lateCtx) Err() error {
	if c.asked.Load() {
		return context.DeadlineExceeded
	}
	return nil
}

func TestExpiredContextIsNotATransportError(t *testing.T) {
	leak.CheckCleanup(t)
	s := newTestServer(t, Options{})
	c := newTestClient(t, s.Addr())

	_, err := c.Do(&lateCtx{Context: context.Background()}, []Op{{Code: OpAdd, Key: 1}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if st := c.Stats(); st.Resends != 0 || st.Reconnects != 0 {
		t.Fatalf("an expired context was treated as a connection failure: %+v", st)
	}
	// Nothing was sent, and the healthy connection serves the next request.
	if ok, err := c.SetAdd(context.Background(), 0, 1); err != nil || !ok {
		t.Fatalf("add after the expired context: %v %v", ok, err)
	}
	if st := s.Stats(); st.Conns != 1 || st.Requests != 1 {
		t.Fatalf("server stats: %+v", st)
	}
}

func TestLazyDeadlineDetectsStall(t *testing.T) {
	leak.CheckCleanup(t)
	const rt = 50 * time.Millisecond
	s := newTestServer(t, Options{})
	c, err := Dial(s.Addr(), &ClientOptions{Seed: 1, RequestTimeout: rt})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ctx := context.Background()

	// Arm the deadline (2·rt out), then let it come nearer without crossing
	// the re-arm threshold: the stalled request runs on the old deadline.
	if _, err := c.SetAdd(ctx, 0, 1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(rt / 2)

	// The server holds the next request between admission and execution for
	// far longer than the client will wait on the socket.
	const stall = 700 * time.Millisecond
	defer failpoint.Arm("txnet.server.stall", failpoint.Spec{Action: failpoint.Delay, Delay: stall, Nth: 1})()
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		ok, err := c.SetAdd(ctx, 0, 2)
		if err == nil && !ok {
			err = errors.New("add reported a duplicate: the transaction applied twice")
		}
		done <- err
	}()
	waitFor(t, stall, func() bool { return c.Stats().Resends > 0 })
	if gaveUp := time.Since(start); gaveUp < rt || gaveUp > 2*rt+250*time.Millisecond {
		t.Fatalf("gave up on the stalled socket after %v, want within [%v, %v] (+ slack)", gaveUp, rt, 2*rt)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Every resend carried the same seq: one execution, the rest replays.
	if st := s.Stats(); st.Commits != 2 || st.Replays == 0 {
		t.Fatalf("server stats: %+v", st)
	}
	if ok, err := c.SetAdd(ctx, 0, 2); err != nil || ok {
		t.Fatalf("key 2 must be present exactly once: %v %v", ok, err)
	}
}

func TestLazyDeadlineSurvivesIdleness(t *testing.T) {
	leak.CheckCleanup(t)
	s := newTestServer(t, Options{})
	c, err := Dial(s.Addr(), &ClientOptions{Seed: 1, RequestTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ctx := context.Background()
	for i := int64(0); i < 3; i++ {
		if ok, err := c.SetAdd(ctx, 0, i); err != nil || !ok {
			t.Fatalf("add %d: %v %v", i, ok, err)
		}
		time.Sleep(200 * time.Millisecond) // the armed deadline passes while idle
	}
	if st := c.Stats(); st.Resends != 0 || st.Reconnects != 0 {
		t.Fatalf("idleness tripped the I/O deadline: %+v", st)
	}
	if st := s.Stats(); st.Conns != 1 {
		t.Fatalf("server saw %d connections, want 1", st.Conns)
	}
}
