// Package rinval implements Remote Invalidation (Chapter 6): an
// invalidation-based STM (InvalSTM's conflict model) whose commit and
// invalidation routines execute on dedicated server goroutines, in three
// versions matching the paper:
//
//   - V1 replaces InvalSTM's global spin lock with remote execution: one
//     commit server both publishes the write set and invalidates
//     conflicting in-flight transactions.
//   - V2 runs commit and invalidation concurrently on two servers inside
//     the same commit window; the client is answered when both finish.
//   - V3 accelerates commit: the client is released as soon as its writes
//     are published, while the invalidation server finishes the window in
//     the background (the window stays closed to readers until then, which
//     preserves opacity).
//
// Like InvalSTM, readers never validate their read sets: committers doom
// conflicting readers through bloom-filter intersection, making per-read
// overhead constant instead of NOrec's quadratic incremental validation.
package rinval

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/abort"
	"repro/internal/bloom"
	"repro/internal/chaos/failpoint"
	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/spin"
	"repro/internal/stm"
	"repro/internal/stm/invalstm"
)

// Failpoints on the RInval commit paths.
var (
	// fpCommitPre fires client-side, before the commit request is posted to
	// the server; nothing is held.
	fpCommitPre = failpoint.New("rinval.commit.pre")
	// fpServerDrop fires on the commit server before a request's commit
	// routine runs (and before the clock window opens). Injected panics are
	// recovered by the server itself — a dead server would strand every
	// client — which aborts the in-flight request and keeps serving.
	fpServerDrop = failpoint.New("rinval.server.drop")
)

// Version selects the RInval variant.
type Version int

// The three versions of Chapter 6.
const (
	V1 Version = 1 + iota // remote commit + invalidation on one server
	V2                    // commit and invalidation in parallel servers
	V3                    // client released after publish; invalidation async
)

// Request states.
const (
	stateReady int32 = iota
	statePending
	stateAborted
)

// DefaultClients is the default request-array size.
const DefaultClients = 64

// request is one slot of the cache-aligned requests array.
type request struct {
	state atomic.Int32
	tx    *txDesc
	_     spin.Pad
}

// txDesc is a client transaction context.
type txDesc struct {
	slot   int // registry slot (descs index)
	writes stm.WriteSet
	wf     bloom.Filter
}

// STM is an RInval instance. Stop must be called to release its servers.
type STM struct {
	version Version
	clock   spin.SeqLock
	descs   []invalstm.Desc
	reqs    []request
	clients chan *client
	ctr     spin.Counters
	// Core.SetManager: the commit and invalidation servers are never gated,
	// so an escalated client's requests are still served while other clients
	// pause.
	*cm.Core

	// Commit/invalidation server rendezvous (V2, V3). The committer's slot
	// and write filter are copied here before the window opens, because V3
	// releases the client before invalidation finishes and the client's
	// next transaction reuses (and clears) its own filter.
	invalReq  atomic.Int32 // request index whose invalidation is wanted, or -1
	invalDone atomic.Bool
	invalSlot int
	invalWF   bloom.Filter

	stop atomic.Bool
	wg   sync.WaitGroup
}

// New creates an RInval instance of the given version with the default
// client capacity and starts its servers.
func New(version Version) *STM { return NewWithClients(version, DefaultClients) }

// NewWithClients creates an RInval instance with an explicit request-array
// size.
func NewWithClients(version Version, n int) *STM {
	s := &STM{
		version: version,
		descs:   make([]invalstm.Desc, n),
		reqs:    make([]request, n),
		clients: make(chan *client, n),
	}
	s.invalReq.Store(-1)
	s.Core = cm.NewCore(s.Name())
	for i := 0; i < n; i++ {
		s.clients <- &client{s: s, tx: &txDesc{slot: i}, h: s.NewHandle()}
	}
	s.wg.Add(1)
	go s.commitServer()
	if version != V1 {
		s.wg.Add(1)
		go s.invalServer()
	}
	return s
}

// Name implements stm.Algorithm.
func (s *STM) Name() string {
	switch s.version {
	case V1:
		return "RInval-V1"
	case V2:
		return "RInval-V2"
	default:
		return "RInval-V3"
	}
}

// Counters implements stm.Algorithm.
func (s *STM) Counters() *spin.Counters { return &s.ctr }

// Stop shuts down the servers; callers drain their workers first.
func (s *STM) Stop() {
	s.stop.Store(true)
	s.wg.Wait()
}

// client is a transaction descriptor bound to one registry slot and one
// request slot; it implements cm.Tx.
type client struct {
	s  *STM
	tx *txDesc
	fn func(stm.Tx)
	h  cm.Handle
}

// Atomic implements stm.Algorithm.
func (s *STM) Atomic(fn func(stm.Tx)) { s.AtomicCtx(nil, fn) }

// AtomicCtx implements stm.AlgorithmCtx: Atomic observing ctx, including
// while every client slot is busy. The registry slot is deactivated and the
// client returned to the channel even when fn (or an armed failpoint) panics
// — a leaked Active slot makes every later committer scan a ghost reader
// forever, and a leaked client shrinks the request array for the life of
// the instance. No commit request is in flight when a panic unwinds: the
// client posts at most one request per attempt and blocks until its verdict.
func (s *STM) AtomicCtx(ctx context.Context, fn func(stm.Tx)) error {
	c, err := cm.Take(ctx, s.Core, s.clients)
	if err != nil {
		return err
	}
	c.fn = fn
	d := c.desc()
	d.Active.Store(true)
	defer func() {
		c.fn = nil
		d.Starved.Store(0)
		d.ClearFilter()
		d.Active.Store(false)
		s.clients <- c
	}()
	return c.h.Run(ctx, nil, c)
}

func (c *client) desc() *invalstm.Desc { return &c.s.descs[c.tx.slot] }

// Begin implements cm.Tx: start one attempt.
func (c *client) Begin() {
	d := c.desc()
	d.ClearFilter()
	d.Invalidated.Store(false)
	c.tx.writes.Reset()
	c.tx.wf.Clear()
}

// Run implements cm.Tx.
func (c *client) Run() { c.fn(c) }

// Rollback implements cm.Tx: nothing is held client-side; an invalidation
// is noted for the contention manager's starvation rule.
func (c *client) Rollback(r abort.Reason) {
	if r == abort.Invalidated {
		c.desc().Starved.Add(1)
	}
}

// Read implements stm.Tx: publish the read filter bit, read under a stable
// even timestamp, and check the doomed flag (constant work per read).
func (c *client) Read(cell *mem.Cell) uint64 {
	if v, ok := c.tx.writes.Get(cell); ok {
		return v
	}
	d := c.desc()
	publishRead(d, cell.ID())
	start := c.s.Profile().Now()
	defer c.s.Profile().AddValidation(start)
	var b spin.Backoff
	for {
		ts := c.s.clock.WaitUnlocked(&c.s.ctr)
		v := cell.Load()
		if c.s.clock.Load() == ts {
			if d.Invalidated.Load() {
				c.h.Trace().ValidateFail(cell.ID())
				abort.Retry(abort.Invalidated)
			}
			return v
		}
		b.Wait()
	}
}

// publishRead sets the bloom bits for key in the shared descriptor.
func publishRead(d *invalstm.Desc, key uint64) {
	var f bloom.Filter
	f.Add(key)
	for i, w := range f {
		if w != 0 {
			d.ReadFilter[i].Or(w)
		}
	}
}

// Write implements stm.Tx.
func (c *client) Write(cell *mem.Cell, v uint64) {
	c.tx.wf.Add(cell.ID())
	c.tx.writes.Put(cell, v)
}

// Commit implements cm.Tx: post the request to the commit server and wait
// for the verdict.
func (c *client) Commit() {
	d := c.desc()
	if c.tx.writes.Len() == 0 {
		if d.Invalidated.Load() {
			c.h.Trace().ValidateFail(0)
			abort.Retry(abort.Invalidated)
		}
		return
	}
	fpCommitPre.Hit()
	start := c.s.Profile().Now()
	defer c.s.Profile().AddCommit(start)
	req := &c.s.reqs[c.tx.slot]
	req.tx = c.tx
	qs := c.h.Trace().Now()
	req.state.Store(statePending)
	var b spin.Backoff
	for {
		st := req.state.Load()
		if st == stateReady {
			c.h.Trace().QueueWait(qs)
			return
		}
		if st == stateAborted {
			c.h.Trace().QueueWait(qs)
			abort.Retry(abort.Invalidated)
		}
		c.s.ctr.IncSpin()
		b.Wait()
	}
}

// commitServer executes commit requests serially.
func (s *STM) commitServer() {
	defer s.wg.Done()
	h := s.NewHandle() // the server's own track
	var b spin.Backoff
	for !s.stop.Load() {
		progressed := false
		for i := range s.reqs {
			req := &s.reqs[i]
			if req.state.Load() != statePending {
				continue
			}
			progressed = true
			t := req.tx
			if s.descs[t.slot].Invalidated.Load() {
				req.state.Store(stateAborted)
				continue
			}
			if !cm.SerialActive() && s.starvedConflict(t) {
				// Contention manager: defer to a starving doomed reader
				// instead of invalidating it yet again. Suspended while a
				// transaction runs in serial mode: the starving reader is
				// paused at the gate and can never clear its own starvation,
				// so deferring to it would stall the escalated committer
				// forever.
				req.state.Store(stateAborted)
				continue
			}
			s.dispatch(req, t, &h)
		}
		if !progressed {
			b.Wait()
		} else {
			b.Reset()
		}
	}
}

// dispatch runs one request's commit routine. An injected (failpoint)
// panic is recovered here: the drop point is before the clock window
// opens, so nothing is held; the request is aborted — the client retries —
// and the server keeps running. Anything else still crashes: a real bug in
// a commit routine must stay loud.
func (s *STM) dispatch(req *request, t *txDesc, h *cm.Handle) {
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
	// A dispatched request is one span on the server's track: execute time
	// is the server-side complement of the client's queue wait.
	h.Start()
	defer h.End()
	es := h.Trace().Now()
	defer h.Trace().Execute(es)
	fpServerDrop.Hit()
	switch s.version {
	case V1:
		s.commitV1(req, t)
	case V2:
		s.commitV2(req, t)
	default:
		s.commitV3(req, t)
	}
}

// commitV1: one server publishes and invalidates inside the window.
func (s *STM) commitV1(req *request, t *txDesc) {
	s.lockClock()
	t.writes.Publish()
	s.invalidate(t.slot, &t.wf)
	s.clock.Unlock()
	req.state.Store(stateReady)
}

// commitV2: the invalidation server dooms readers concurrently with the
// write-set publication; the client is answered when both are done.
func (s *STM) commitV2(req *request, t *txDesc) {
	s.lockClock()
	s.openInval(t)
	t.writes.Publish()
	s.waitInval()
	s.clock.Unlock()
	req.state.Store(stateReady)
}

// commitV3: the client is released right after publication; the window is
// closed (and readers released) once the invalidation server finishes.
func (s *STM) commitV3(req *request, t *txDesc) {
	s.lockClock()
	s.openInval(t)
	t.writes.Publish()
	req.state.Store(stateReady)
	s.waitInval()
	s.clock.Unlock()
}

func (s *STM) lockClock() {
	ts := s.clock.Load()
	if !s.clock.TryLock(ts) {
		panic("rinval: commit server lost the clock")
	}
}

// openInval hands the committer's slot and write filter to the
// invalidation server. The atomic store of invalReq publishes the copies.
func (s *STM) openInval(t *txDesc) {
	s.invalSlot = t.slot
	s.invalWF = t.wf
	s.invalDone.Store(false)
	s.invalReq.Store(int32(t.slot))
}

// waitInval blocks until the invalidation server finishes the open window.
func (s *STM) waitInval() {
	var b spin.Backoff
	for !s.invalDone.Load() {
		if s.stop.Load() {
			return
		}
		b.Wait()
	}
}

// starvedConflict reports whether committing t would doom a transaction
// the contention manager says t must defer to.
func (s *STM) starvedConflict(t *txDesc) bool {
	mine := s.descs[t.slot].Starved.Load()
	for i := range s.descs {
		if i == t.slot {
			continue
		}
		d := &s.descs[i]
		if d.Active.Load() && d.IntersectsWrite(&t.wf) &&
			invalstm.ShouldDefer(d, i, mine, t.slot) {
			return true
		}
	}
	return false
}

// invalidate dooms every active transaction (other than the committer at
// slot) whose read filter intersects the committed write filter.
func (s *STM) invalidate(slot int, wf *bloom.Filter) {
	for i := range s.descs {
		if i == slot {
			continue
		}
		d := &s.descs[i]
		if d.Active.Load() && d.IntersectsWrite(wf) {
			d.Invalidated.Store(true)
		}
	}
}

// invalServer runs the invalidation routine for V2/V3 windows.
func (s *STM) invalServer() {
	defer s.wg.Done()
	var b spin.Backoff
	for !s.stop.Load() {
		if s.invalReq.Load() < 0 {
			b.Wait()
			continue
		}
		s.invalidate(s.invalSlot, &s.invalWF)
		s.invalReq.Store(-1)
		s.invalDone.Store(true)
		b.Reset()
	}
}

var _ stm.Algorithm = (*STM)(nil)
