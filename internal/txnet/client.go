package txnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// clientSrc is the flight-recorder source client request spans record under.
var clientSrc = trace.S("txnet.client")

// Terminal client errors. ErrDeadline, ErrAborted and ErrUnavailable are
// definitive: the transaction did not commit (the server only caches and
// replays committed responses, so a definitive non-OK answer proves no
// effect). ErrSessionExpired means the exactly-once window was lost — the
// client cannot retry safely and surfaces the uncertainty.
var (
	ErrDeadline       = errors.New("txnet: deadline exceeded")
	ErrAborted        = errors.New("txnet: transaction aborted")
	ErrUnavailable    = errors.New("txnet: server shutting down")
	ErrSessionExpired = errors.New("txnet: session expired on server")
	ErrClosed         = errors.New("txnet: client closed")
)

// ClientOptions tune the retry behaviour. Zero fields take defaults.
type ClientOptions struct {
	// DialTimeout bounds each connection attempt (default 2s).
	DialTimeout time.Duration
	// RequestTimeout bounds each request round-trip when the context has
	// no deadline, so a stalled server is detected and the request retried
	// over a fresh connection. The socket deadline is re-armed lazily (see
	// roundTrip), so detection takes between RequestTimeout and twice that
	// (default 30s).
	RequestTimeout time.Duration
	// RetryBase and RetryMax bound the jittered exponential reconnect
	// backoff (defaults 1ms and 250ms).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Seed seeds the backoff jitter; 0 derives one from the clock.
	Seed int64
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.DialTimeout == 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.RetryBase == 0 {
		o.RetryBase = time.Millisecond
	}
	if o.RetryMax == 0 {
		o.RetryMax = 250 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = time.Now().UnixNano()
	}
	return o
}

// ClientStats counts client-side retry activity.
type ClientStats struct {
	Reconnects uint64 // connections re-established
	Resends    uint64 // requests re-sent after a connection failure
	Overloads  uint64 // StatusOverloaded responses honored
}

// Client is a connection to a txstore server holding one session. A Client
// serializes its requests (sessions are sequential by design); use one
// Client per concurrent actor.
//
// Requests are exactly-once: every transaction carries the session's next
// sequence number, and any retry after a connection failure resends the
// same number, which the server either executes (it never saw it) or
// answers from its cache (it committed and the response was lost). Do never
// double-applies and never loses a committed acknowledgement.
type Client struct {
	addr string
	o    ClientOptions

	mu      sync.Mutex
	conn    net.Conn
	br      *bufio.Reader
	session uint64
	seq     uint64
	rng     *rand.Rand
	buf     []byte    // request frame under construction
	rbuf    []byte    // response frame; nothing parsed out of it aliases it
	armed   time.Time // I/O deadline set on conn (zero = none)
	closed  bool
	tr      *trace.Local
	wrap    func(net.Conn) net.Conn // test seam, see dial

	stats struct {
		reconnects, resends, overloads atomic.Uint64
	}
}

// Dial connects to a txstore server and opens a fresh session. opts may be
// nil for defaults.
func Dial(addr string, opts *ClientOptions) (*Client, error) {
	return dial(addr, opts, nil)
}

// dial is Dial with a seam for tests: a non-nil wrap is applied to every
// connection the client opens, so a test can count its writes.
func dial(addr string, opts *ClientOptions, wrap func(net.Conn) net.Conn) (*Client, error) {
	o := ClientOptions{}
	if opts != nil {
		o = *opts
	}
	c := &Client{addr: addr, o: o.withDefaults(), tr: clientSrc.Local(), wrap: wrap}
	c.rng = rand.New(rand.NewSource(c.o.Seed))
	if err := c.connectLocked(context.Background()); err != nil {
		return nil, err
	}
	return c, nil
}

// Stats snapshots the client's retry counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Reconnects: c.stats.reconnects.Load(),
		Resends:    c.stats.resends.Load(),
		Overloads:  c.stats.overloads.Load(),
	}
}

// Close says goodbye and tears the connection down. The goodbye frame
// frees the server-side session immediately instead of leaving it to the
// TTL sweeper; it is best-effort — if the connection is already dead the
// session still expires by TTL as before.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.conn != nil && c.session != 0 {
		c.buf = appendBye(c.buf[:0], c.session)
		_ = c.conn.SetDeadline(time.Now().Add(time.Second))
		if _, err := c.conn.Write(c.buf); err == nil {
			_, _ = readFrame(c.br, c.rbuf) // wait for the ack, ignore its content
		}
	}
	return c.dropLocked()
}

func (c *Client) dropLocked() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.br, c.armed = nil, nil, time.Time{}
	return err
}

// connectLocked dials and runs the session handshake (resuming the existing
// session if one was ever established). Call with mu held.
func (c *Client) connectLocked(ctx context.Context) error {
	d := net.Dialer{Timeout: c.o.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return err
	}
	if c.wrap != nil {
		conn = c.wrap(conn)
	}
	br := bufio.NewReader(conn)
	c.buf = appendHello(c.buf[:0], c.session)
	_ = conn.SetDeadline(time.Now().Add(c.o.DialTimeout))
	if _, err := conn.Write(c.buf); err != nil {
		conn.Close()
		return err
	}
	frame, err := readFrame(br, c.rbuf)
	if err != nil {
		conn.Close()
		return err
	}
	c.rbuf = frame
	_ = conn.SetDeadline(time.Time{})
	r, err := parseResponse(frame)
	if err != nil {
		conn.Close()
		return err
	}
	switch r.status {
	case StatusHello:
		c.session = r.sessionID
		c.conn, c.br = conn, br
		return nil
	case StatusBadRequest:
		conn.Close()
		return fmt.Errorf("%w (session %d)", ErrSessionExpired, c.session)
	default:
		conn.Close()
		return fmt.Errorf("txnet: unexpected hello response %s", r.status)
	}
}

// backoff sleeps the n-th jittered exponential wait, honouring ctx.
func (c *Client) backoff(ctx context.Context, n int) error {
	d := c.o.RetryBase << uint(n)
	if d > c.o.RetryMax || d <= 0 {
		d = c.o.RetryMax
	}
	c.mu.Lock()
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stages is the per-request latency breakdown filled by DoStages: one
// duration per trace.Stage — client-side queue (encode + one socket write)
// and net (round trip minus server time), plus the server-reported dispatch,
// admission, execute, WAL-append, fsync and ack stages — and the whole
// call's duration. Stages the request did not pass through stay zero.
type Stages struct {
	D       [trace.NumStages]time.Duration
	Total   time.Duration
	Resends int // same-seq resends this call needed
}

// Do executes ops as one atomic transaction and returns one result per op.
// Connection failures are retried transparently (same sequence number —
// safe by the session protocol); overload responses are retried after the
// server's hint. Definitive failures return ErrDeadline, ErrAborted,
// ErrUnavailable or ErrSessionExpired; in every such case the transaction
// did not apply.
func (c *Client) Do(ctx context.Context, ops []Op) ([]OpResult, error) {
	return c.DoStages(ctx, ops, nil)
}

// DoStages is Do with a latency breakdown: when st is non-nil the request
// asks the server for its stage block and fills st with the combined
// client+server view on return. When the flight recorder samples the
// request, a trace id is generated, propagated on the wire (surviving
// resends verbatim) and recorded with every stage span on both ends.
func (c *Client) DoStages(ctx context.Context, ops []Op, st *Stages) ([]OpResult, error) {
	var t0 time.Time // read only to fill st.Total: a clock read costs ~90 ns
	if st != nil {
		t0 = time.Now()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	seq := c.seq + 1
	var traceID uint64
	if c.tr.Draw() {
		// Nonzero by construction: zero means "unsampled" on the wire.
		traceID = uint64(c.rng.Int63())<<1 | 1
	}
	c.tr.SpanOpen(traceID, 0)
	defer c.tr.SpanClose()
	var flags byte
	if st != nil {
		flags |= flagStages
	}
	resends := 0
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if c.conn == nil {
			if err := c.connectLocked(ctx); err != nil {
				if errors.Is(err, ErrSessionExpired) || ctx.Err() != nil {
					return nil, err
				}
				c.mu.Unlock()
				berr := c.backoff(ctx, attempt)
				c.mu.Lock()
				if c.closed {
					return nil, ErrClosed
				}
				if berr != nil {
					return nil, berr
				}
				continue
			}
			c.stats.reconnects.Add(1)
		}
		r, queueNS, netNS, err := c.roundTrip(ctx, seq, ops, traceID, flags)
		if err != nil {
			if errors.Is(err, errCtxPast) {
				// The caller's context ended; the connection is healthy.
				return nil, context.DeadlineExceeded
			}
			// Connection-level failure mid-request: the server may or may
			// not have committed. Reconnect and resend the same seq; the
			// session cache disambiguates. The resend keeps the original
			// trace id so the retried commit stays one trace.
			_ = c.dropLocked()
			c.stats.resends.Add(1)
			resends++
			flags |= flagResend
			c.tr.Resend(resends)
			c.mu.Unlock()
			berr := c.backoff(ctx, attempt)
			c.mu.Lock()
			if c.closed {
				return nil, ErrClosed
			}
			if berr != nil {
				return nil, berr
			}
			continue
		}
		switch r.status {
		case StatusOK:
			c.seq = seq
			var serverNS int64
			for _, d := range r.stages {
				serverNS += d
			}
			if wireNS := netNS - serverNS; wireNS > 0 {
				netNS = wireNS
			}
			c.tr.Stage(trace.StageQueue, queueNS)
			c.tr.Stage(trace.StageNet, netNS)
			if st != nil {
				*st = Stages{Total: time.Since(t0), Resends: resends}
				st.D[trace.StageQueue] = time.Duration(queueNS)
				st.D[trace.StageNet] = time.Duration(netNS)
				for i, d := range r.stages {
					if d > 0 {
						st.D[i] = time.Duration(d)
					}
				}
			}
			return r.results, nil
		case StatusOverloaded:
			c.stats.overloads.Add(1)
			c.mu.Unlock()
			werr := sleepCtx(ctx, c.jitter(r.retryAfter))
			c.mu.Lock()
			if c.closed {
				return nil, ErrClosed
			}
			if werr != nil {
				return nil, werr
			}
			continue
		case StatusDeadline:
			c.seq = seq
			return nil, ErrDeadline
		case StatusAborted:
			c.seq = seq
			return nil, fmt.Errorf("%w: %s", ErrAborted, r.msg)
		case StatusShutdown:
			c.seq = seq
			return nil, ErrUnavailable
		case StatusBadRequest:
			c.seq = seq
			if r.msg == "unknown session" {
				return nil, ErrSessionExpired
			}
			return nil, fmt.Errorf("txnet: bad request: %s", r.msg)
		default:
			return nil, fmt.Errorf("txnet: unexpected response %s", r.status)
		}
	}
}

// jitter spreads a server retry hint over [hint/2, hint] so shed clients do
// not return in one synchronized wave.
func (c *Client) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return c.o.RetryBase
	}
	return d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
}

// errCtxPast is roundTrip refusing to send: the wall clock has passed ctx's
// deadline, which happens a moment before ctx's timer makes Err() non-nil.
var errCtxPast = errors.New("txnet: context deadline already past")

// roundTrip sends one txn frame and reads its response, returning the
// client-side stage timings: queueNS (encode + socket write) and netNS (the
// wait for the response frame and its decoding, which the caller narrows to
// wire time by subtracting the server-reported stages). Timing is skipped — both return
// zero — when neither the trace span nor a stage breakdown wants it. Call
// with mu held.
//
// A stalled server is detected by the socket's I/O deadline. Re-arming it
// costs a timer operation, so without a context deadline it is re-armed only
// when nearer than RequestTimeout, to twice that: detection takes between
// RequestTimeout and 2·RequestTimeout. A context deadline is armed exactly.
func (c *Client) roundTrip(ctx context.Context, seq uint64, ops []Op,
	traceID uint64, flags byte) (r response, queueNS, netNS int64, err error) {
	var deadline time.Duration
	t0 := time.Now()
	floor := t0.Add(c.o.RequestTimeout)
	if d, ok := ctx.Deadline(); ok {
		if deadline = d.Sub(t0); deadline <= 0 {
			return response{}, 0, 0, errCtxPast
		}
		if c.armed = floor; d.Before(floor) {
			// Give the server's deadline response a moment to arrive before
			// the socket gives up.
			c.armed = d.Add(100 * time.Millisecond)
		}
		_ = c.conn.SetDeadline(c.armed)
	} else if c.armed.Before(floor) {
		c.armed = floor.Add(c.o.RequestTimeout)
		_ = c.conn.SetDeadline(c.armed)
	}
	timed := traceID != 0 || flags&flagStages != 0
	c.buf = appendTxn(c.buf[:0], c.session, seq, deadline, traceID, traceID, flags, ops)
	if _, err := c.conn.Write(c.buf); err != nil {
		return response{}, 0, 0, err
	}
	var sent time.Time
	if timed {
		sent = time.Now()
		queueNS = sent.Sub(t0).Nanoseconds()
	}
	frame, err := readFrame(c.br, c.rbuf)
	if err != nil {
		return response{}, 0, 0, err
	}
	c.rbuf = frame
	r, err = parseResponse(frame)
	if err != nil {
		return response{}, 0, 0, err
	}
	if timed {
		netNS = time.Since(sent).Nanoseconds()
	}
	if r.status != StatusHello && r.seq != seq {
		return response{}, 0, 0, fmt.Errorf("txnet: response for seq %d, want %d", r.seq, seq)
	}
	return r, queueNS, netNS, nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Convenience single-op helpers over the default store layout (set at
// index 0, map at 1, PQ at 2, as built by NewOTBStore).

// Do1 executes a single-op transaction.
func (c *Client) Do1(ctx context.Context, op Op) (OpResult, error) {
	res, err := c.Do(ctx, []Op{op})
	if err != nil {
		return OpResult{}, err
	}
	return res[0], nil
}

// SetAdd adds key to the set structure at index st.
func (c *Client) SetAdd(ctx context.Context, st uint32, key int64) (bool, error) {
	r, err := c.Do1(ctx, Op{Code: OpAdd, Struct: st, Key: key})
	return r.OK, err
}

// SetContains reports membership of key in the set structure at index st.
func (c *Client) SetContains(ctx context.Context, st uint32, key int64) (bool, error) {
	r, err := c.Do1(ctx, Op{Code: OpContains, Struct: st, Key: key})
	return r.OK, err
}

// MapPut stores key→val in the map structure at index st, reporting whether
// a new entry was created.
func (c *Client) MapPut(ctx context.Context, st uint32, key int64, val uint64) (bool, error) {
	r, err := c.Do1(ctx, Op{Code: OpPut, Struct: st, Key: key, Val: val})
	return r.OK, err
}

// MapGet reads key from the map structure at index st.
func (c *Client) MapGet(ctx context.Context, st uint32, key int64) (uint64, bool, error) {
	r, err := c.Do1(ctx, Op{Code: OpGet, Struct: st, Key: key})
	return r.Out, r.OK, err
}

// PQAdd inserts key into the priority queue at index st.
func (c *Client) PQAdd(ctx context.Context, st uint32, key int64) (bool, error) {
	r, err := c.Do1(ctx, Op{Code: OpAdd, Struct: st, Key: key})
	return r.OK, err
}

// PQRemoveMin pops the minimum of the priority queue at index st.
func (c *Client) PQRemoveMin(ctx context.Context, st uint32) (int64, bool, error) {
	r, err := c.Do1(ctx, Op{Code: OpRemoveMin, Struct: st})
	return int64(r.Out), r.OK, err
}
