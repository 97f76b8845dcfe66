// Package rtc implements Remote Transaction Commit (Chapter 5): NOrec
// whose commit phases execute on dedicated server goroutines instead of in
// the application threads. A client is a norec.Tx that keeps read and write
// bloom filters beside its read and write sets, and whose Commit posts the
// transaction into a cache-padded request array and spins (yielding) on its
// own slot; the main server executes commits serially, and one or more
// secondary servers use the filters to detect requests independent of the
// in-flight commit and execute them concurrently.
//
// The "dedicated cores" of the paper become dedicated goroutines here: the
// request/response protocol, the dependency detection, and the
// server-synchronization rules (the servers lock and the odd/even global
// timestamp) are reproduced exactly; core pinning is not expressible in
// portable Go.
package rtc

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/abort"
	"repro/internal/bloom"
	"repro/internal/chaos/failpoint"
	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/spin"
	"repro/internal/stm"
	"repro/internal/stm/norec"
)

// Failpoints on the RTC commit paths.
var (
	// fpCommitPre fires client-side, before the commit request is posted to
	// the server; nothing is held.
	fpCommitPre = failpoint.New("rtc.commit.pre")
	// fpServerDrop fires in the main server's serve routine before the
	// request is examined. Injected panics are recovered by the server
	// itself — a dead server would strand every client — which aborts the
	// in-flight request and keeps serving.
	fpServerDrop = failpoint.New("rtc.server.drop")
)

// Request states.
const (
	stateReady int32 = iota
	statePending
	stateAborted
)

// DefaultClients is the default size of the request array.
const DefaultClients = 64

// DefaultDDThreshold is the write-set size at or above which dependency
// detection is enabled for a commit (Section 5.1.1: short commits finish
// before the secondary server can make progress, so DD is counterproductive
// for them).
const DefaultDDThreshold = 4

// request is one slot of the cache-aligned requests array.
type request struct {
	state atomic.Int32
	tx    *client
	_     spin.Pad
}

// Options configure an RTC instance.
type Options struct {
	// Clients is the size of the request array (maximum concurrent
	// transactions). 0 means DefaultClients.
	Clients int
	// Secondaries is the number of dependency-detector servers (Figure
	// 5.11 sweeps 0, 1, 2). 0 disables dependency detection entirely.
	Secondaries int
	// DDThreshold is the minimum write-set size for DD-enabled commits.
	// 0 means DefaultDDThreshold.
	DDThreshold int
	// FairScheduling makes the main server involve the contention manager
	// in its decisions (the paper's Section 7.1.3 proposal): among pending
	// requests it serves the transaction with the most aborted attempts
	// first, instead of sweeping in slot order.
	FairScheduling bool
}

// STM is an RTC instance. Stop must be called to release its servers.
type STM struct {
	// The NOrec instance the clients run on: its clock, which only the main
	// server advances, its counters and its contention manager. The servers
	// are never gated by the manager, so an escalated client's commit
	// requests are still served while the other clients pause.
	*norec.STM
	reqs             []request
	clients          chan *client
	serversLock      atomic.Bool
	ddActive         atomic.Bool
	mainReq          atomic.Int32
	windowWF         bloom.Filter // union of write filters committed in the open window
	threshold        int
	secondaries      int
	fair             bool
	secondaryCommits atomic.Uint64 // commits executed by secondary servers
	stop             atomic.Bool
	wg               sync.WaitGroup
}

// New creates an RTC instance with one main server and opts.Secondaries
// dependency detectors, all started immediately.
func New(opts Options) *STM {
	n := opts.Clients
	if n == 0 {
		n = DefaultClients
	}
	thr := opts.DDThreshold
	if thr == 0 {
		thr = DefaultDDThreshold
	}
	s := &STM{
		STM:         norec.NewNamed("RTC"),
		reqs:        make([]request, n),
		clients:     make(chan *client, n),
		threshold:   thr,
		secondaries: opts.Secondaries,
		fair:        opts.FairScheduling,
	}
	s.mainReq.Store(-1)
	for i := 0; i < n; i++ {
		// A client is bound to its request slot for life, so the slot's
		// descriptor pointer is written once, before any server can read it.
		c := &client{Tx: *s.NewTx(nil, false), s: s, slot: i}
		s.reqs[i].tx = c
		s.clients <- c
	}
	s.wg.Add(1)
	go s.mainServer()
	for k := 0; k < opts.Secondaries; k++ {
		s.wg.Add(1)
		go s.secondaryServer()
	}
	return s
}

// Stop shuts down the server goroutines. In-flight transactions must have
// drained first (callers stop their workers before the algorithm).
func (s *STM) Stop() {
	s.stop.Store(true)
	s.wg.Wait()
}

// SecondaryCommits reports how many commits the dependency detectors
// executed (Figure 5.11's effectiveness measure).
func (s *STM) SecondaryCommits() uint64 { return s.secondaryCommits.Load() }

// client is a transaction descriptor bound to one request slot: NOrec's
// protocol half, which it hands to the servers, plus the filters dependency
// detection reads. It implements cm.Tx.
type client struct {
	norec.Tx
	s        *STM
	slot     int
	attempts uint32       // aborted attempts of this transaction (CM priority)
	wf       bloom.Filter // write filter
	rwf      bloom.Filter // read-write filter
	fn       func(stm.Tx)
}

// Atomic implements stm.Algorithm.
func (s *STM) Atomic(fn func(stm.Tx)) { s.AtomicCtx(nil, fn) }

// AtomicCtx implements stm.AlgorithmCtx: Atomic observing ctx, including
// while every client slot is busy. The client descriptor returns to the
// channel even when fn (or an armed failpoint) panics — a leaked client
// would shrink the request array for the life of the instance. No commit
// request is in flight when the panic unwinds: the client posts at most one
// request per attempt and blocks until its verdict.
func (s *STM) AtomicCtx(ctx context.Context, fn func(stm.Tx)) error {
	c, err := cm.Take(ctx, s.Core, s.clients)
	if err != nil {
		return err
	}
	c.fn = fn
	c.attempts = 0
	defer func() {
		c.fn = nil
		s.clients <- c
	}()
	return c.Handle().Run(ctx, nil, c)
}

// Begin implements cm.Tx: start one attempt.
func (c *client) Begin() {
	c.wf.Clear()
	c.rwf.Clear()
	c.Tx.Begin()
}

// Run implements cm.Tx.
func (c *client) Run() { c.fn(c) }

// Rollback implements cm.Tx: nothing is held client-side (NOrec's release
// finds no clock to release); the aborted attempt only raises the
// transaction's priority with a fair-scheduling server.
func (c *client) Rollback(r abort.Reason) {
	c.attempts++
	c.Tx.Rollback(r)
}

// Read implements stm.Tx: NOrec's read and post-read validation, plus
// read-write filter maintenance (Algorithm 8).
func (c *client) Read(cell *mem.Cell) uint64 {
	c.rwf.Add(cell.ID())
	return c.Tx.Read(cell)
}

// Write implements stm.Tx.
func (c *client) Write(cell *mem.Cell, v uint64) {
	c.wf.Add(cell.ID())
	c.rwf.Add(cell.ID())
	c.Tx.Write(cell, v)
}

// Commit implements cm.Tx: post the request and wait for a server verdict
// (Algorithm 9). Read-only transactions commit locally.
func (c *client) Commit() {
	if c.NumWrites() == 0 {
		return
	}
	fpCommitPre.Hit()
	if !c.ReadsValid() {
		// Cheap pre-check to spare the server a doomed request.
		c.Handle().Trace().ValidateFail(0)
		abort.Retry(abort.Conflict)
	}
	req := &c.s.reqs[c.slot]
	h := c.Handle()
	qs := h.Trace().Now()
	req.state.Store(statePending)
	var b spin.Backoff
	for {
		st := req.state.Load()
		if st == stateReady {
			h.Trace().QueueWait(qs)
			return
		}
		if st == stateAborted {
			h.Trace().QueueWait(qs)
			abort.Retry(abort.Conflict)
		}
		c.s.Counters().IncSpin()
		b.Wait()
	}
}

// mainServer executes commit requests serially (Algorithm 10). With fair
// scheduling it serves the most-aborted pending request first; otherwise it
// sweeps the array in slot order.
func (s *STM) mainServer() {
	defer s.wg.Done()
	h := s.NewHandle() // the server's own track
	var b spin.Backoff
	for !s.stop.Load() {
		progressed := false
		if s.fair {
			progressed = s.serveMostStarved(&h)
		} else {
			for i := range s.reqs {
				if s.reqs[i].state.Load() == statePending {
					s.serve(i, &h)
					progressed = true
				}
			}
		}
		if !progressed {
			b.Wait()
		} else {
			b.Reset()
		}
	}
}

// serveMostStarved picks the pending request with the most aborted
// attempts (ties to the lowest slot) and serves it.
func (s *STM) serveMostStarved(h *cm.Handle) bool {
	best := -1
	var bestAttempts uint32
	for i := range s.reqs {
		if s.reqs[i].state.Load() != statePending {
			continue
		}
		a := s.reqs[i].tx.attempts
		if best == -1 || a > bestAttempts {
			best, bestAttempts = i, a
		}
	}
	if best == -1 {
		return false
	}
	s.serve(best, h)
	return true
}

// serve runs the commit protocol for the pending request at slot i. An
// injected (failpoint) panic is recovered here: the drop point is before
// the clock is touched, so nothing is held; the request is aborted — the
// client retries — and the server keeps running. Anything else still
// crashes: a real bug in the commit protocol must stay loud.
func (s *STM) serve(i int, h *cm.Handle) {
	req := &s.reqs[i]
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if _, injected := p.(*failpoint.PanicValue); !injected {
			panic(p)
		}
		req.state.Store(stateAborted)
	}()
	// A served request is one span on the server's track: execute time is
	// the server-side complement of the client's queue wait.
	h.Start()
	defer h.End()
	es := h.Trace().Now()
	defer h.Trace().Execute(es)
	fpServerDrop.Hit()
	t := req.tx
	if !t.ReadsValid() {
		req.state.Store(stateAborted)
		return
	}
	if s.secondaries == 0 || t.NumWrites() < s.threshold {
		s.commitNoDD(req, t)
	} else {
		s.commitDD(i, req, t)
	}
}

// commitNoDD is the dependency-detection-disabled commit: bump the
// timestamp to odd, publish, bump to even, answer the client.
func (s *STM) commitNoDD(req *request, t *client) {
	s.lockClock()
	t.Publish()
	s.Clock().Unlock()
	req.state.Store(stateReady)
}

// lockClock makes the global timestamp odd. Only the main server advances
// the clock, so this cannot fail.
func (s *STM) lockClock() {
	clock := s.Clock()
	if !clock.TryLock(clock.Load()) {
		panic("rtc: main server lost the clock")
	}
}

// commitDD opens a dependency-detection window around the commit so
// secondary servers can execute independent requests concurrently.
func (s *STM) commitDD(i int, req *request, t *client) {
	s.windowWF = t.wf
	s.mainReq.Store(int32(i))
	s.ddActive.Store(true)
	s.lockClock()
	t.Publish()
	// Give the detectors a scheduling point while the window is open: on a
	// machine with fewer cores than servers they would otherwise never
	// observe it (on the paper's hardware they run truly in parallel).
	runtime.Gosched()
	// Wait for any in-flight secondary commit before closing the window.
	var b spin.Backoff
	for !s.serversLock.CompareAndSwap(false, true) {
		s.Counters().IncCAS()
		b.Wait()
	}
	s.ddActive.Store(false)
	s.Clock().Unlock()
	s.serversLock.Store(false)
	s.mainReq.Store(-1)
	req.state.Store(stateReady)
}

// secondaryServer scans for requests independent of the open commit window
// and executes them concurrently with the main server (Algorithm 11).
func (s *STM) secondaryServer() {
	defer s.wg.Done()
	h := s.NewHandle() // the server's own track
	var b spin.Backoff
	for !s.stop.Load() {
		if !s.ddActive.Load() {
			b.Wait()
			continue
		}
		ts := s.Clock().Load()
		if !spin.IsLocked(ts) {
			b.Wait()
			continue
		}
		main := s.mainReq.Load()
		progressed := false
		for i := range s.reqs {
			if int32(i) == main {
				continue
			}
			req := &s.reqs[i]
			if req.state.Load() != statePending {
				continue
			}
			h.Start()
			es := h.Trace().Now()
			served := s.trySecondaryCommit(ts, req)
			if served {
				h.Trace().Execute(es)
			}
			h.End()
			if served {
				progressed = true
				break // one commit per window per detector
			}
		}
		if !progressed {
			b.Wait()
		} else {
			b.Reset()
		}
	}
}

// trySecondaryCommit attempts to execute req concurrently with the window
// open at timestamp ts. It returns true if it reached a verdict (commit or
// abort) for req.
func (s *STM) trySecondaryCommit(ts uint64, req *request) bool {
	t := req.tx
	if !s.serversLock.CompareAndSwap(false, true) {
		s.Counters().IncCAS()
		return false
	}
	if s.Clock().Load() != ts || !s.ddActive.Load() {
		s.serversLock.Store(false)
		return false
	}
	// Independence: the request's reads and writes must be disjoint from
	// everything written in this window (the main request plus any commits
	// by other detectors).
	if t.rwf.Intersects(&s.windowWF) {
		s.serversLock.Store(false)
		return false
	}
	if !t.ReadsValid() {
		req.state.Store(stateAborted)
		s.serversLock.Store(false)
		return true
	}
	t.Publish()
	s.windowWF.Union(&t.wf)
	req.state.Store(stateReady)
	s.secondaryCommits.Add(1)
	s.serversLock.Store(false)
	// Wait for the window to close so at most one of this detector's
	// commits extends any given main commit.
	var b spin.Backoff
	for s.Clock().Load() == ts && !s.stop.Load() {
		b.Wait()
	}
	return true
}

var _ stm.Algorithm = (*STM)(nil)
