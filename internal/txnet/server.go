package txnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos/failpoint"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// serverSrc is the flight-recorder source server request spans record under.
var serverSrc = trace.S("txnet.server")

// Network failpoints. All four are recovered at the connection level: an
// injected panic drops that connection (the fault a real network inflicts)
// and the server keeps serving everyone else. Real panics stay loud.
var (
	// fpConnDrop fires after a request frame is read, before dispatch —
	// the connection dies with a request received but unanswered, forcing
	// the client down the reconnect-and-retry path.
	fpConnDrop = failpoint.New("txnet.conn.drop")
	// fpReadStall fires before each frame read (delay stalls the server's
	// read path, modeling a slow or hostile client; panic drops the conn).
	fpReadStall = failpoint.New("txnet.read.stall")
	// fpWritePartial fires after the first half of a response has been
	// written to the wire — a panic here leaves the client with a
	// truncated frame, exercising its resynchronization via reconnect.
	fpWritePartial = failpoint.New("txnet.write.partial")
	// fpServerStall fires between admission and execution (delay widens
	// the window where a committed-but-unanswered transaction exists).
	fpServerStall = failpoint.New("txnet.server.stall")
)

// Options configure a Server. The zero value serves the default OTBStore
// with production-shaped limits.
type Options struct {
	// Store executes transactions; nil means NewOTBStore().
	Store Store
	// MaxInflight bounds concurrently executing transactions (admission
	// slots). 0 means DefaultMaxInflight.
	MaxInflight int
	// AdmissionPatience is how long an arrival waits for a slot before
	// being shed. 0 means DefaultAdmissionPatience.
	AdmissionPatience time.Duration
	// SessionTTL expires idle sessions (and their exactly-once caches).
	// 0 means DefaultSessionTTL.
	SessionTTL time.Duration
	// Durable, when set, makes commits crash-recoverable: the server
	// adopts the recovered store and session table from OpenDurable
	// (overriding Store) and acknowledges mutating transactions only
	// after the write-ahead log has accepted them.
	Durable *Durable
	// SlowThreshold, when positive, logs a structured line with the full
	// per-stage breakdown for every request whose total service time
	// (receipt to response written) reaches it.
	SlowThreshold time.Duration
	// SlowWriter receives slow-request lines (default os.Stderr).
	SlowWriter io.Writer
}

// Defaults for Options zero fields.
const (
	DefaultMaxInflight       = 128
	DefaultAdmissionPatience = 5 * time.Millisecond
	DefaultSessionTTL        = 5 * time.Minute
)

// Stats is a point-in-time snapshot of server counters.
type Stats struct {
	Conns        uint64 // connections accepted
	Requests     uint64 // transaction requests received
	Commits      uint64 // transactions committed
	Replays      uint64 // duplicate seq answered from the session cache
	Shed         uint64 // requests shed by admission control
	Deadline     uint64 // requests that exceeded their wire deadline
	Aborted      uint64 // requests answered StatusAborted
	BadRequests  uint64 // malformed or invalid requests
	ShutdownResp uint64 // requests refused because the server was draining
	DroppedConns uint64 // connections dropped by injected faults
	Sessions     int    // live sessions
}

// Server is a running txstore endpoint. Create with Listen or Serve; stop
// with Shutdown (graceful drain) or Close.
type Server struct {
	opts  Options
	store Store
	dur   *Durable // nil unless Options.Durable
	ln    net.Listener
	adm   *admission
	sess  *sessionTable

	ctx    context.Context // cancelled when drain gives up on in-flight work
	cancel context.CancelFunc

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool // set by closeConns; late-accepted conns are refused

	inflightMu sync.Mutex // guards draining vs. reqWG.Add
	reqWG      sync.WaitGroup
	draining   bool

	shutdownOnce sync.Once
	shutdownErr  error
	done         chan struct{} // closed when Shutdown finishes
	connWG       sync.WaitGroup

	slowNS int64     // slow-request threshold (0 = off)
	slow   io.Writer // slow-request sink

	stats struct {
		conns, requests, commits, replays atomic.Uint64
		shed, deadline, aborted, badReq   atomic.Uint64
		shutdownResp, droppedConns        atomic.Uint64
	}
}

// Listen starts a server on addr ("host:port", ":0" picks a port).
func Listen(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Serve(ln, opts), nil
}

// Serve starts a server on an existing listener, which it owns from now on.
func Serve(ln net.Listener, opts Options) *Server {
	if opts.Store == nil && opts.Durable == nil {
		opts.Store = NewOTBStore()
	}
	if opts.MaxInflight == 0 {
		opts.MaxInflight = DefaultMaxInflight
	}
	if opts.AdmissionPatience == 0 {
		opts.AdmissionPatience = DefaultAdmissionPatience
	}
	if opts.SessionTTL == 0 {
		opts.SessionTTL = DefaultSessionTTL
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:   opts,
		store:  opts.Store,
		ln:     ln,
		adm:    newAdmission(opts.MaxInflight, opts.AdmissionPatience),
		sess:   newSessionTable(opts.SessionTTL),
		ctx:    ctx,
		cancel: cancel,
		conns:  make(map[net.Conn]struct{}),
		done:   make(chan struct{}),
	}
	if opts.Durable != nil {
		// Durable mode owns both the store (recovery already rebuilt it)
		// and the session table (resumed sessions carry their caches).
		s.dur = opts.Durable
		s.store = opts.Durable.store
		s.sess = opts.Durable.adoptSessions(opts.SessionTTL)
	}
	if opts.SlowThreshold > 0 {
		s.slowNS = opts.SlowThreshold.Nanoseconds()
		s.slow = opts.SlowWriter
		if s.slow == nil {
			s.slow = os.Stderr
		}
	}
	registerServer(s)
	s.connWG.Add(2)
	go s.acceptLoop()
	go s.sweepLoop()
	return s
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	return Stats{
		Conns:        s.stats.conns.Load(),
		Requests:     s.stats.requests.Load(),
		Commits:      s.stats.commits.Load(),
		Replays:      s.stats.replays.Load(),
		Shed:         s.stats.shed.Load(),
		Deadline:     s.stats.deadline.Load(),
		Aborted:      s.stats.aborted.Load(),
		BadRequests:  s.stats.badReq.Load(),
		ShutdownResp: s.stats.shutdownResp.Load(),
		DroppedConns: s.stats.droppedConns.Load(),
		Sessions:     s.sess.len(),
	}
}

// Shutdown drains gracefully: stop accepting, let in-flight transactions
// finish until ctx expires, then cancel whatever is left (in-flight
// transactions return Canceled and answer StatusShutdown), close every
// connection, and wait for all server goroutines to exit. It returns ctx's
// error if the drain deadline was hit, nil on a clean drain. Subsequent
// calls wait for the first and return its result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		s.inflightMu.Lock()
		s.draining = true
		s.inflightMu.Unlock()
		_ = s.ln.Close()

		drained := make(chan struct{})
		go func() {
			s.reqWG.Wait()
			close(drained)
		}()
		select {
		case <-drained:
		case <-ctx.Done():
			s.shutdownErr = ctx.Err()
		}
		// Cancel stragglers (no-op when drained) and give them a moment to
		// write their StatusShutdown responses before yanking connections.
		s.cancel()
		if s.shutdownErr != nil {
			select {
			case <-drained:
			case <-time.After(250 * time.Millisecond):
			}
		}
		s.closeConns()
		s.connWG.Wait()
		s.cancel()
		if s.dur != nil {
			if cerr := s.dur.Close(); cerr != nil && s.shutdownErr == nil {
				s.shutdownErr = cerr
			}
		}
		unregisterServer(s)
		close(s.done)
	})
	<-s.done
	return s.shutdownErr
}

// Close is Shutdown with a one-second drain budget.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

func (s *Server) closeConns() {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	s.closed = true
	for c := range s.conns {
		_ = c.Close()
	}
}

// acceptLoop admits connections until the listener closes.
func (s *Server) acceptLoop() {
	defer s.connWG.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed (Shutdown) or fatal; either way stop
		}
		s.connMu.Lock()
		if s.closed {
			// Raced with closeConns: this conn would be served but never
			// torn down, hanging the drain. Refuse it instead.
			s.connMu.Unlock()
			_ = c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.connMu.Unlock()
		s.stats.conns.Add(1)
		s.connWG.Add(1)
		go s.handleConn(c)
	}
}

// sweepLoop expires idle sessions until shutdown.
func (s *Server) sweepLoop() {
	defer s.connWG.Done()
	tick := time.NewTicker(30 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case now := <-tick.C:
			s.sess.sweep(now)
		}
	}
}

// errConnDropped signals the handler to close the connection after an
// injected fault.
var errConnDropped = errors.New("txnet: connection dropped by failpoint")

// handleConn serves one connection: frames in, frames out, strictly in
// order. Injected failpoint panics anywhere in the request path drop the
// connection (the client's retry protocol makes that safe); real panics
// propagate and crash the test/process — a protocol bug must stay loud.
func (s *Server) handleConn(c net.Conn) {
	defer s.connWG.Done()
	defer func() {
		_ = c.Close()
		s.connMu.Lock()
		delete(s.conns, c)
		s.connMu.Unlock()
	}()
	// handleFrame recovers injected panics on the dispatch path; this catches
	// the one place outside it (the read-stall hit below), so a panic-armed
	// txnet.read.stall also drops the connection instead of the process.
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if _, injected := p.(*failpoint.PanicValue); injected {
			s.stats.droppedConns.Add(1)
			return
		}
		panic(p)
	}()
	br := bufio.NewReader(c)
	cs := connState{w: c, tl: serverSrc.Local()}
	var buf []byte
	for {
		fpReadStall.Hit()
		frame, err := readFrame(br, buf)
		if err != nil {
			return
		}
		buf = frame
		if err = s.handleFrame(&cs, frame); err != nil {
			if errors.Is(err, errConnDropped) {
				s.stats.droppedConns.Add(1)
			}
			return
		}
	}
}

// connState is one connection's write side and the scratch its requests
// reuse: decoded ops, their results and the response frame.
type connState struct {
	w       io.Writer
	tl      *trace.Local
	ops     []Op
	results []OpResult
	resp    []byte
	// inflight marks a request admitted into the drain's in-flight set.
	inflight bool
}

// handleFrame dispatches one request and writes its response. It recovers
// injected failpoint panics into errConnDropped.
func (s *Server) handleFrame(cs *connState, frame []byte) (err error) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if _, injected := p.(*failpoint.PanicValue); injected {
			err = errConnDropped
			return
		}
		panic(p)
	}()
	if len(frame) == 0 {
		return fmt.Errorf("txnet: empty frame")
	}
	fpConnDrop.Hit()
	switch frame[0] {
	case msgHello:
		if len(frame) != 9 {
			return fmt.Errorf("txnet: malformed hello")
		}
		var sess *session
		if id := binary.BigEndian.Uint64(frame[1:]); id == 0 {
			sess = s.sess.open()
			if s.dur != nil {
				// The grant must survive a crash: a client holding an
				// ID the server forgot loses its exactly-once window.
				s.dur.logSessionOpen(sess.id)
			}
		} else {
			var ok bool
			if sess, ok = s.sess.lookup(id); !ok {
				sessStats.resumeExpired.Add(1)
				cs.resp = appendErrResp(cs.resp[:0], StatusBadRequest, 0, 0, "unknown session")
				return s.writeResp(cs.w, cs.resp)
			}
			sessStats.resumed.Add(1)
		}
		cs.resp = appendHelloResp(cs.resp[:0], sess.id, sess.lastSeq.Load())
		return s.writeResp(cs.w, cs.resp)
	case msgBye:
		if len(frame) != 9 {
			return fmt.Errorf("txnet: malformed bye")
		}
		if id := binary.BigEndian.Uint64(frame[1:]); id != 0 && s.sess.remove(id) {
			sessStats.closed.Add(1)
			if s.dur != nil {
				s.dur.logSessionClose(id)
			}
		}
		cs.resp = appendByeResp(cs.resp[:0])
		return s.writeResp(cs.w, cs.resp)
	case msgTxn:
		req, ops, perr := parseTxn(frame, cs.ops)
		cs.ops = ops
		if perr != nil {
			s.stats.badReq.Add(1)
			cs.resp = appendErrResp(cs.resp[:0], StatusBadRequest, 0, 0, perr.Error())
			return s.writeResp(cs.w, cs.resp)
		}
		s.stats.requests.Add(1)
		var obs reqObs
		s.beginObs(&obs, cs.tl, &req)
		// An injected panic between here and finish leaves the span open;
		// abandon (a no-op after finish) closes it on that path.
		defer obs.abandon()
		// An admitted request stays in the drain's in-flight set until its
		// response is written: Shutdown closes connections once the set
		// empties, and must not cut a StatusShutdown answer off.
		defer s.leave(cs)
		cs.resp = s.execTxn(req, cs, &obs)
		werr := s.writeResp(cs.w, cs.resp)
		obs.finish(s, &req, Status(cs.resp[frameHdr]), werr == nil)
		return werr
	default:
		return fmt.Errorf("txnet: unknown message type %d", frame[0])
	}
}

// leave takes an admitted request out of the in-flight set.
func (s *Server) leave(cs *connState) {
	if cs.inflight {
		cs.inflight = false
		s.reqWG.Done()
	}
}

// execTxn runs one transaction request through the session, admission and
// store layers, returning the response frame (built in cs.resp's storage).
// o records where the request's time went (a disarmed o makes every stamp
// one branch).
func (s *Server) execTxn(req txnReq, cs *connState, o *reqObs) []byte {
	resp := cs.resp[:0]
	sess, ok := s.sess.lookup(req.session)
	if !ok {
		s.stats.badReq.Add(1)
		return appendErrResp(resp, StatusBadRequest, req.seq, 0, "unknown session")
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	o.stamp(trace.StageDispatch)
	switch last := sess.lastSeq.Load(); {
	case req.seq == last && sess.lastResp != nil:
		// Retry of the committed transaction: replay the cached verdict.
		s.stats.replays.Add(1)
		o.replay = true
		return appendFrame(resp, sess.lastResp)
	case req.seq == 0:
		s.stats.badReq.Add(1)
		return appendErrResp(resp, StatusBadRequest, req.seq, 0, "seq must be positive")
	case req.seq < last:
		s.stats.badReq.Add(1)
		return appendErrResp(resp, StatusBadRequest, req.seq, 0,
			fmt.Sprintf("stale seq %d (session at %d)", req.seq, last))
	}

	// Admission: enter the in-flight set only if the server is not
	// draining, so Shutdown's drain wait covers every executing request.
	s.inflightMu.Lock()
	if s.draining {
		s.inflightMu.Unlock()
		s.stats.shutdownResp.Add(1)
		return appendErrResp(resp, StatusShutdown, req.seq, 0, "")
	}
	s.reqWG.Add(1)
	s.inflightMu.Unlock()
	cs.inflight = true // handleFrame leaves once the response is written

	admitted := s.adm.acquire(s.ctx)
	o.stamp(trace.StageAdmission)
	if !admitted {
		if s.ctx.Err() != nil {
			s.stats.shutdownResp.Add(1)
			return appendErrResp(resp, StatusShutdown, req.seq, 0, "")
		}
		s.stats.shed.Add(1)
		return appendErrResp(resp, StatusOverloaded, req.seq, s.adm.retryAfter(), "")
	}
	start := time.Now()
	defer func() { s.adm.release(time.Since(start)) }()

	fpServerStall.Hit()

	ctx := s.ctx
	var cancel context.CancelFunc
	if req.deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, req.deadline)
		defer cancel()
	}
	if cap(cs.results) < len(req.ops) {
		cs.results = make([]OpResult, len(req.ops))
	}
	results := cs.results[:len(req.ops)]
	var err error
	if s.dur != nil {
		// Durable commit path: execute, log, ack — commitTxn returns only
		// store errors (log failures crash via walFatal, never ack).
		resp, err = s.dur.commitTxn(ctx, sess, req, results, resp, o)
		if err == nil {
			s.stats.commits.Add(1)
			return resp
		}
	} else {
		err = s.store.Exec(ctx, req.ops, results)
		o.stamp(trace.StageExecute)
		if err == nil {
			s.stats.commits.Add(1)
			resp = appendOKResp(resp, req.seq, results, o.wireStages(req))
			// Commit and cache move together under the session lock: from here
			// on, a retry of req.seq replays this exact response.
			sess.lastSeq.Store(req.seq)
			sess.lastResp = append(sess.lastResp[:0], resp[frameHdr:]...)
			return resp
		}
	}
	switch {
	case errors.Is(err, ErrBadOp):
		s.stats.badReq.Add(1)
		return appendErrResp(resp, StatusBadRequest, req.seq, 0, err.Error())
	case errors.Is(err, context.DeadlineExceeded) && req.deadline > 0 && s.ctx.Err() == nil:
		s.stats.deadline.Add(1)
		return appendErrResp(resp, StatusDeadline, req.seq, 0, "")
	case s.ctx.Err() != nil:
		s.stats.shutdownResp.Add(1)
		return appendErrResp(resp, StatusShutdown, req.seq, 0, "")
	default:
		s.stats.aborted.Add(1)
		return appendErrResp(resp, StatusAborted, req.seq, 0, err.Error())
	}
}

// writeResp writes one response frame straight to the connection, in one
// Write. With txnet.write.partial armed the header (promising the full
// length) and first half of the payload go out before the failpoint fires, so
// an injected panic leaves the client holding a truncated frame — the
// nastiest network fault: bytes arrived, then silence.
func (s *Server) writeResp(w io.Writer, frame []byte) error {
	if fpWritePartial.Armed() && len(frame) > frameHdr+1 {
		cut := frameHdr + (len(frame)-frameHdr)/2
		if _, err := w.Write(frame[:cut]); err != nil {
			return err
		}
		fpWritePartial.Hit()
		frame = frame[cut:]
	}
	_, err := w.Write(frame)
	return err
}

// reqObs carries one request's observability state: the open trace span,
// per-stage wall-clock stamps, and the replay/resend markers. Its zero
// value is fully disarmed — every stamp collapses to one predictable branch
// — so untraced requests on a server with no slow log and disabled
// telemetry pay nothing (guarded by the trace_bench_test overhead bench).
type reqObs struct {
	tl      *trace.Local
	traceID uint64
	armed   bool
	done    bool
	replay  bool
	start   time.Time
	mark    time.Time
	stages  [trace.NumStages]int64
}

// beginObs arms the observer when anyone wants the data: the wire carried a
// trace id (the client's sampling verdict), the client asked for a stage
// block, the server logs slow requests, or telemetry is recording.
func (s *Server) beginObs(o *reqObs, tl *trace.Local, req *txnReq) {
	if req.traceID != 0 {
		o.traceID = req.traceID
		tl.SpanOpen(req.traceID, req.parent)
		if tl.SpanActive() {
			o.tl = tl
			if req.flags&flagResend != 0 {
				tl.Resend(0)
			}
		}
	}
	o.armed = o.tl != nil || o.traceID != 0 || s.slowNS > 0 ||
		req.flags&flagStages != 0 || telemetry.Default.Enabled()
	if o.armed {
		now := time.Now()
		o.start, o.mark = now, now
	}
}

// stamp closes the stage that began at the previous stamp (or at receipt).
func (o *reqObs) stamp(st trace.Stage) {
	if !o.armed {
		return
	}
	now := time.Now()
	if d := now.Sub(o.mark).Nanoseconds(); d > 0 {
		o.stages[st] += d
		o.tl.Stage(st, d)
	}
	o.mark = now
}

// rearm resets the stage clock without recording anything, so untracked
// work between two stages (snapshotting, bookkeeping) is not billed to the
// next stage.
func (o *reqObs) rearm() {
	if o.armed {
		o.mark = time.Now()
	}
}

// wireStages returns the stage array for the OK response's wire block when
// the request asked for one (flagStages), nil otherwise. The block misses
// the ack stage by construction — the response is encoded before it is
// written — but the server's own histograms and trace spans include it.
func (o *reqObs) wireStages(req txnReq) *[trace.NumStages]int64 {
	if o.armed && req.flags&flagStages != 0 {
		return &o.stages
	}
	return nil
}

// finish stamps the ack stage, feeds the wire-layer histograms (with the
// trace id as exemplar), emits the slow-request line when warranted, and
// closes the span. flushed is false when the response write failed.
func (o *reqObs) finish(s *Server, req *txnReq, st Status, flushed bool) {
	if o.done {
		return
	}
	o.done = true
	if !o.armed {
		return
	}
	if flushed {
		o.stamp(trace.StageAck)
	}
	total := time.Since(o.start).Nanoseconds()
	netStats.reqLatency.ObserveEx(total, o.traceID)
	for i, d := range o.stages {
		if d > 0 {
			netStats.stageLatency[i].ObserveEx(d, o.traceID)
		}
	}
	if s.slowNS > 0 && total >= s.slowNS {
		s.logSlow(req, st, total, o)
	}
	o.tl.SpanClose()
}

// abandon closes a span finish never reached (injected-panic paths).
func (o *reqObs) abandon() {
	if !o.done {
		o.done = true
		o.tl.SpanClose()
	}
}

// logSlow writes one structured (logfmt) slow-request line with the full
// stage breakdown, e.g.:
//
//	txnet slow-request trace=4f1e... session=3 seq=17 status=ok total=12ms
//	  dispatch=1µs admission=8ms execute=2ms wal-append=40µs fsync=1.9ms ack=3µs
func (s *Server) logSlow(req *txnReq, st Status, totalNS int64, o *reqObs) {
	var b strings.Builder
	fmt.Fprintf(&b, "txnet slow-request trace=%016x session=%d seq=%d status=%s total=%v",
		o.traceID, req.session, req.seq, st, time.Duration(totalNS))
	if req.flags&flagResend != 0 {
		b.WriteString(" resend=true")
	}
	if o.replay {
		b.WriteString(" replay=true")
	}
	for i, d := range o.stages {
		if d > 0 {
			fmt.Fprintf(&b, " %s=%v", trace.Stage(i), time.Duration(d))
		}
	}
	b.WriteByte('\n')
	_, _ = io.WriteString(s.slow, b.String())
}
