package cm

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/abort"
	"repro/internal/spin"
	"repro/internal/stm"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Tx is the algorithm-specific part of a transaction: what a runtime's
// pooled descriptor supplies so that Handle.Run can drive it. The methods
// release locks and move data only — every counter and every lifecycle stamp
// belongs to the runner.
type Tx interface {
	// Begin starts one attempt: reset the logs, take the snapshot, pin the
	// epoch.
	Begin()
	// Run calls the user body.
	Run()
	// Commit validates and publishes the attempt, aborting via abort.Retry.
	Commit()
	// Rollback undoes an attempt that Begin started and that did not commit
	// (abort Signal or foreign panic): release locks, replay the undo log. It
	// is called exactly once per such attempt and never on clean state — a
	// cancelled transaction is classified by the runner, not by a second
	// Rollback.
	Rollback(abort.Reason)
}

// Core is the per-runtime half of the transaction lifecycle: the meter and
// flight-recorder source the runtime records under, its contention manager,
// and the always-on commit/abort counters. A runtime embeds one (created by
// NewCore) and gets SetManager, Commits, Aborts and SetProfile by promotion.
type Core struct {
	meter   *telemetry.Meter
	src     *trace.Source
	mgr     atomic.Pointer[Manager]
	prof    *stm.Profile
	_       spin.Pad // keeps the fields every transaction reads off the counters' lines
	commits spin.ShardedU64
	aborts  spin.ShardedU64
}

// NewCore creates the lifecycle core of a runtime recording under name.
func NewCore(name string) *Core {
	c := &Core{meter: telemetry.M(name), src: trace.S(name)}
	c.meter.SetPolicySource(func() string { return c.Manager().Policy().Name() })
	return c
}

// SetManager installs the contention manager the runtime's transactions run
// under (nil restores the shared default). Safe during live traffic.
func (c *Core) SetManager(m *Manager) { c.mgr.Store(m) }

// Manager returns the contention manager in force.
func (c *Core) Manager() *Manager { return Or(c.mgr.Load()) }

// SetProfile attaches a critical-path profiler (may be nil). It must be set
// before any transaction runs.
func (c *Core) SetProfile(p *stm.Profile) { c.prof = p }

// Profile returns the attached profiler (possibly nil; its methods are
// nil-safe) for the runtime's own validation and commit timers.
func (c *Core) Profile() *stm.Profile { return c.prof }

// Commits reports the lifetime number of committed transactions.
func (c *Core) Commits() uint64 { return c.commits.Load() }

// Aborts reports the lifetime number of aborted attempts. A cancelled
// transaction adds nothing beyond the attempts it actually rolled back.
func (c *Core) Aborts() uint64 { return c.aborts.Load() }

// Canceled records a transaction whose context expired before it obtained a
// descriptor (a full client array or slot registry), so it has no Handle to
// record on; the path is rare enough to take a fresh meter handle each time.
func (c *Core) Canceled() { c.meter.Local().Abort(abort.Canceled) }

// Take receives a descriptor from the free list of a fixed client array,
// giving up — recorded on c as Canceled — when ctx is done first. A nil ctx
// never cancels.
func Take[T any](ctx context.Context, c *Core, free <-chan T) (T, error) {
	if ctx == nil {
		return <-free, nil
	}
	select {
	case t := <-free:
		return t, nil
	case <-ctx.Done():
		c.Canceled()
		var none T
		return none, ctx.Err()
	}
}

// NewHandle returns the recording handle one pooled descriptor holds for its
// lifetime.
func (c *Core) NewHandle() Handle {
	return Handle{c: c, tel: c.meter.Local(), tr: c.src.Local(), hint: spin.NextShardHint()}
}

// Handle is a descriptor's half of the lifecycle: the shard-bound telemetry
// handle and the flight-recorder handle travel together, so each stage is
// stamped at one call site that feeds counter, histogram and ring. A Handle
// is owned by one goroutine at a time (the descriptor-pool discipline).
type Handle struct {
	c    *Core
	tel  *telemetry.Local
	tr   *trace.Local
	hint uint32
}

// Trace returns the flight-recorder handle for the runtime's own events
// (operations, locks, validation failures). Lifecycle events are the
// runner's.
func (h *Handle) Trace() *trace.Local { return h.tr }

// Span is the start of a transaction as Start stamped it.
type Span struct {
	tel  telemetry.Stamp
	prof time.Time
}

// Run executes t as one transaction: attempts repeat until one commits, the
// context is done, or a foreign panic unwinds. It is the only retry loop in
// the repository, and (with the pieces below, which the hybrid HTM also
// composes around its hardware prelude) the only place a transaction's
// lifecycle is stamped. Stats, if non-nil, is updated by the calling
// goroutine only.
//
// Every optimistic attempt first passes the serial gate; after an abort the
// manager paces the retry and decides whether the retry budget is exhausted.
// When it is, the transaction acquires the process-wide gate and retries
// without policy waits until it commits — new optimistic attempts everywhere
// block at the gate meanwhile, so it competes only with attempts already in
// flight and commits after a bounded number of retries.
//
// Cancellation of ctx (nil never cancels) is checked before every attempt,
// after every abort and inside the gate wait. The attempt state is already
// rolled back at each of those points, so the runner records Canceled itself,
// reopens the gate if it held it, and returns the context's error.
//
// A foreign panic (anything that is not an abort.Signal) rolls the attempt
// back with the Panicked reason — locks released, gate reopened, span closed
// — and continues to the caller.
func (h *Handle) Run(ctx context.Context, stats *abort.Stats, t Tx) error {
	sp := h.Start()
	defer h.End()
	return h.Retry(ctx, stats, t, sp)
}

// Start opens the transaction: flight-recorder span, latency stamp, profile
// timer.
func (h *Handle) Start() Span {
	h.tr.TxStart()
	return Span{tel: h.tel.Start(), prof: h.c.prof.Now()}
}

// End closes the span; deferred, so it balances Start on every exit.
func (h *Handle) End() { h.tr.TxEnd() }

// Abort stamps one aborted attempt.
func (h *Handle) Abort(r abort.Reason) {
	h.c.aborts.Inc(h.hint)
	h.tel.Abort(r)
	h.tr.Abort(r)
}

// Commit stamps the committed transaction and its whole latency.
func (h *Handle) Commit(sp Span) { h.commitAt(sp, 0) }

// commitAt is Commit at end, the clock reading the commit phase ended with
// (0 to read the clock now).
func (h *Handle) commitAt(sp Span, end telemetry.Stamp) {
	h.c.commits.Inc(h.hint)
	h.tel.CommitAt(sp.tel, end)
	h.c.prof.AddTotal(sp.prof, true)
}

// Fallback stamps a fall-through to a slow path (the hybrid HTM giving up on
// hardware).
func (h *Handle) Fallback() {
	h.tel.Fallback()
	h.tr.Fallback()
}

// live returns the context's error (nil for a nil context).
func (h *Handle) live(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return h.canceled(ctx.Err())
}

// canceled passes err through, recording a non-nil one as the transaction's
// Canceled outcome: one telemetry abort and one ring event, not an aborted
// attempt.
func (h *Handle) canceled(err error) error {
	if err != nil {
		h.tel.Abort(abort.Canceled)
		h.tr.Abort(abort.Canceled)
	}
	return err
}

// Gate is what an optimistic attempt passes before it starts: the context is
// live and no escalated transaction is running (one atomic load when none
// is).
func (h *Handle) Gate(ctx context.Context) error {
	if err := h.live(ctx); err != nil {
		return err
	}
	return h.canceled(h.c.Manager().PauseCtx(ctx))
}

// Retry is Run's loop for a span that is already open.
func (h *Handle) Retry(ctx context.Context, stats *abort.Stats, t Tx, sp Span) error {
	m := h.c.Manager()
	escalated := false
	// Deferred so a foreign panic, already rolled back by attempt, reopens
	// the gate on its way to the caller.
	defer func() {
		if escalated {
			m.Release()
		}
	}()
	var b spin.Backoff
	for n := 1; ; n++ {
		var err error
		if escalated {
			err = h.live(ctx)
		} else {
			err = h.Gate(ctx)
		}
		if err != nil {
			return err
		}
		r, end, committed := h.attempt(stats, t)
		if committed {
			if stats != nil {
				stats.Commits++
			}
			h.commitAt(sp, end)
			return nil
		}
		// A context that expired during the aborted attempt is not paced;
		// expiry during the policy wait itself (bounded at microseconds) is
		// caught at the loop top.
		if err := h.live(ctx); err != nil {
			return err
		}
		switch {
		case escalated:
			// Already serial: retry immediately, but still yield so attempts
			// that were in flight when the gate closed can finish (mandatory
			// when GOMAXPROCS=1).
			b.Wait()
		case m.OnAbort(n, r):
			m.Escalate()
			escalated = true
			h.tel.Escalated()
			h.tr.Escalated()
		}
	}
}

// attempt runs one attempt, converting an abort Signal into the signal's
// reason. A committed attempt returns the clock reading its commit phase
// ended with, which also ends the transaction's latency. Any other panic takes the same rollback with the Panicked reason —
// the attempt may have been holding locks when it blew up, and Rollback is
// the one place that knows how to release them — and is then re-raised.
func (h *Handle) attempt(stats *abort.Stats, t Tx) (r abort.Reason, end telemetry.Stamp, committed bool) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		sig, isAbort := p.(abort.Signal)
		r = abort.Panicked
		if isAbort {
			r = sig.Reason
		}
		t.Rollback(r)
		if stats != nil {
			stats.Aborts++
		}
		h.Abort(r)
		if !isAbort {
			panic(p)
		}
	}()
	h.tr.AttemptStart()
	t.Begin()
	t.Run()
	cs := h.tel.Start()
	h.tr.CommitBegin()
	t.Commit()
	h.tr.CommitEnd()
	return 0, h.tel.CommitPhase(cs), true
}
