// Package htm emulates a best-effort hardware transactional memory in the
// style of Intel TSX, and builds the hybrid TM of the paper's Section 7.1.1
// on top of it.
//
// Real HTM cannot be expressed in portable Go, so the emulation preserves
// the programming model rather than the mechanism: hardware transactions
// have a bounded read/write footprint (capacity aborts, like TSX's
// L1-bounded buffers), abort with a reason code on conflict, may abort
// spuriously (best-effort: no progress guarantee), and subscribe to the
// software path's lock so hardware and software transactions are mutually
// atomic. Conflicts are detected value-based at a short commit arbitration
// point, the emulation's stand-in for cache-coherence conflict detection.
package htm

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/abort"
	"repro/internal/chaos/failpoint"
	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/spin"
	"repro/internal/stm"
)

// Failpoints on the hybrid commit paths.
var (
	// fpHWCommit fires at the end of a hardware attempt, before commit
	// arbitration opens; nothing is held.
	fpHWCommit = failpoint.New("htm.hw.commit")
	// fpSWLocked fires on the software fallback with the clock held, before
	// the redo log is published; recovery restores the pre-lock timestamp.
	fpSWLocked = failpoint.New("htm.sw.locked")
)

// AbortCode classifies why a hardware transaction failed.
type AbortCode int

// Hardware abort codes (mirroring TSX's abort reasons).
const (
	// Conflict: another transaction committed over this one's footprint.
	Conflict AbortCode = iota
	// Capacity: the read or write footprint exceeded the hardware bound.
	Capacity
	// LockSubscription: the software fallback held the lock.
	LockSubscription
)

// String returns the abort code's name.
func (c AbortCode) String() string {
	switch c {
	case Conflict:
		return "conflict"
	case Capacity:
		return "capacity"
	case LockSubscription:
		return "lock-subscription"
	default:
		return "unknown"
	}
}

// Default hardware footprint bounds (words). TSX is bounded by L1; these
// defaults are deliberately small so capacity fallbacks are exercised.
const (
	DefaultReadCap  = 128
	DefaultWriteCap = 32
)

// Options configure a hybrid TM instance.
type Options struct {
	// ReadCap / WriteCap bound the hardware footprint (0 = defaults).
	ReadCap, WriteCap int
	// Retries is how many hardware attempts precede the software fallback
	// (0 = 3, the usual TSX retry policy).
	Retries int
}

// hwAbort carries an AbortCode through the emulated transaction's unwind.
type hwAbort struct{ code AbortCode }

// TM is a hybrid transactional memory: transactions run in the emulated
// HTM first and fall back to an integrated NOrec-style software path after
// repeated hardware aborts. Hardware commits subscribe to the software
// clock, so the two paths serialize correctly against each other.
type TM struct {
	clock    spin.SeqLock // shared by hardware commits and software path
	readCap  int
	writeCap int
	retries  int
	ctr      spin.Counters
	// Core.SetManager: the hardware retry loop is a client of the same
	// machinery — attempts pause while any transaction runs in serial mode,
	// the policy paces retries, and a software fallback that exhausts its own
	// retry budget escalates like every other runtime. Commits and Aborts
	// count both paths: every hardware abort and every fallback abort is one
	// aborted attempt.
	*cm.Core
	stats struct {
		hwCommits atomic.Uint64
		swCommits atomic.Uint64
		hwAborts  [3]atomic.Uint64 // by AbortCode
	}
	pool sync.Pool
}

// New creates a hybrid TM.
func New(opts Options) *TM {
	t := &TM{
		Core:     cm.NewCore("HybridHTM"),
		readCap:  opts.ReadCap,
		writeCap: opts.WriteCap,
		retries:  opts.Retries,
	}
	if t.readCap == 0 {
		t.readCap = DefaultReadCap
	}
	if t.writeCap == 0 {
		t.writeCap = DefaultWriteCap
	}
	if t.retries == 0 {
		t.retries = 3
	}
	t.pool.New = func() any { return &htx{tm: t, h: t.NewHandle()} }
	return t
}

// Name implements stm.Algorithm.
func (t *TM) Name() string { return "HybridHTM" }

// Counters implements stm.Algorithm.
func (t *TM) Counters() *spin.Counters { return &t.ctr }

// Stop implements stm.Algorithm; there are no background goroutines.
func (t *TM) Stop() {}

// HWCommits and SWCommits report where transactions committed; the ratio
// is the hybrid's effectiveness measure.
func (t *TM) HWCommits() uint64 { return t.stats.hwCommits.Load() }

// SWCommits reports commits that took the software fallback.
func (t *TM) SWCommits() uint64 { return t.stats.swCommits.Load() }

// HWAborts reports hardware aborts by code.
func (t *TM) HWAborts(code AbortCode) uint64 { return t.stats.hwAborts[code].Load() }

// htx is a transaction descriptor shared by the hardware and software
// paths (the software path simply ignores the capacity bounds). It
// implements cm.Tx for the software fallback.
type htx struct {
	tm         *TM
	h          cm.Handle
	hardware   bool
	holdsClock bool // software path holds the clock (commit in progress)
	snapshot   uint64
	reads      []stm.ReadEntry
	writes     stm.WriteSet
	fn         func(stm.Tx)
}

// Atomic implements stm.Algorithm: up to retries hardware attempts, then
// the software fallback (which cannot fail permanently).
func (t *TM) Atomic(fn func(stm.Tx)) { t.AtomicCtx(nil, fn) }

// AtomicCtx implements stm.AlgorithmCtx: Atomic observing ctx.
// Cancellation is checked before each hardware attempt and inside the
// software fallback's retry loop; the descriptor returns to its pool even
// when fn (or an armed failpoint) panics.
//
// The hardware prelude is the one lifecycle shape that is not cm.Handle.Run's
// loop — an attempt is not Begin/Run/Commit but one emulated hardware
// transaction with its own abort codes, a bounded retry count and no
// escalation — so this is the only place outside the runner that opens the
// span and stamps aborts and the commit itself, with the same Handle pieces
// Run is made of; the span is then handed to Retry for the fallback.
func (t *TM) AtomicCtx(ctx context.Context, fn func(stm.Tx)) error {
	x := t.pool.Get().(*htx)
	x.fn = fn
	defer func() {
		x.fn = nil
		x.reads = x.reads[:0]
		x.writes.Reset()
		t.pool.Put(x)
	}()
	sp := x.h.Start()
	defer x.h.End()
	for attempt := 1; attempt <= t.retries; attempt++ {
		// Serial-mode subscription: like the fallback-lock subscription,
		// hardware attempts stand aside while any transaction runs serially.
		if err := x.h.Gate(ctx); err != nil {
			return err
		}
		x.h.Trace().HWAttempt(attempt)
		code, ok := t.tryHardware(x)
		if ok {
			t.stats.hwCommits.Add(1)
			x.h.Commit(sp)
			return nil
		}
		t.stats.hwAborts[code].Add(1)
		// Hardware aborts are conflicts from telemetry's viewpoint: the
		// lock-subscription case is a busy fallback lock.
		if code == LockSubscription {
			x.h.Abort(abort.LockBusy)
		} else {
			x.h.Abort(abort.Conflict)
		}
		if code == Capacity {
			break // a bigger footprint will not fit next time either
		}
		t.Manager().Policy().Wait(attempt, abort.Conflict)
	}
	x.h.Fallback()
	x.hardware = false
	err := x.h.Retry(ctx, nil, x, sp)
	if err == nil {
		t.stats.swCommits.Add(1)
	}
	return err
}

// Begin implements cm.Tx: start one software attempt.
func (x *htx) Begin() {
	x.reads = x.reads[:0]
	x.writes.Reset()
	x.snapshot = x.tm.clock.WaitUnlocked(&x.tm.ctr)
}

// Run implements cm.Tx.
func (x *htx) Run() { x.fn(x) }

// Rollback implements cm.Tx: release the clock if the software path died
// holding it (an armed failpoint between lock and publish); nothing was
// published, so the pre-lock timestamp is restored.
func (x *htx) Rollback(abort.Reason) {
	if x.holdsClock {
		x.holdsClock = false
		x.tm.clock.UnlockUnchanged()
	}
}

// tryHardware runs one emulated hardware attempt.
func (t *TM) tryHardware(x *htx) (code AbortCode, ok bool) {
	x.hardware = true
	x.reads = x.reads[:0]
	x.writes.Reset()
	// Lock subscription: a hardware transaction cannot start while the
	// software path holds the clock.
	start := t.clock.Load()
	if spin.IsLocked(start) {
		return LockSubscription, false
	}
	x.snapshot = start
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if ha, isHW := p.(hwAbort); isHW {
			code, ok = ha.code, false
			return
		}
		if _, isRetry := p.(abort.Signal); isRetry {
			// An explicit software retry inside a hardware attempt aborts
			// the hardware transaction like any other conflict.
			code, ok = Conflict, false
			return
		}
		// A foreign panic: the hardware attempt buffered everything, so
		// there is nothing to roll back, only the abort to record.
		x.h.Abort(abort.Panicked)
		panic(p)
	}()
	x.fn(x)
	fpHWCommit.Hit()
	// Commit arbitration: a brief exclusive window standing in for the
	// cache-coherence commit point.
	if !t.clock.TryLock(x.snapshot) {
		return Conflict, false
	}
	for i := range x.reads {
		if x.reads[i].Cell.Load() != x.reads[i].Val {
			t.clock.UnlockUnchanged()
			return Conflict, false
		}
	}
	x.writes.Publish()
	t.clock.Unlock()
	return 0, true
}

// Read implements stm.Tx for both paths.
func (x *htx) Read(c *mem.Cell) uint64 {
	if v, ok := x.writes.Get(c); ok {
		return v
	}
	if x.hardware {
		if len(x.reads) >= x.tm.readCap {
			panic(hwAbort{Capacity})
		}
		v := c.Load()
		// Eager conflict subscription: any clock movement aborts the
		// hardware transaction immediately (as a coherence event would).
		if x.tm.clock.Load() != x.snapshot {
			panic(hwAbort{Conflict})
		}
		x.reads = append(x.reads, stm.ReadEntry{Cell: c, Val: v})
		return v
	}
	v := c.Load()
	for x.snapshot != x.tm.clock.Load() {
		x.snapshot = x.validate()
		v = c.Load()
	}
	x.reads = append(x.reads, stm.ReadEntry{Cell: c, Val: v})
	return v
}

// Write implements stm.Tx for both paths.
func (x *htx) Write(c *mem.Cell, v uint64) {
	if x.hardware && x.writes.Len() >= x.tm.writeCap {
		if _, seen := x.writes.Get(c); !seen {
			panic(hwAbort{Capacity})
		}
	}
	x.writes.Put(c, v)
}

// validate is the software path's value-based validation.
func (x *htx) validate() uint64 {
	var b spin.Backoff
	for {
		ts := x.tm.clock.Load()
		if spin.IsLocked(ts) {
			x.tm.ctr.IncSpin()
			b.Wait()
			continue
		}
		for i := range x.reads {
			if x.reads[i].Cell.Load() != x.reads[i].Val {
				x.h.Trace().ValidateFail(x.reads[i].Cell.ID())
				abort.Retry(abort.Conflict)
			}
		}
		if ts == x.tm.clock.Load() {
			return ts
		}
	}
}

// Commit implements cm.Tx: publish the software write set under the shared
// clock.
func (x *htx) Commit() {
	if x.writes.Len() == 0 {
		return
	}
	for !x.tm.clock.TryLock(x.snapshot) {
		x.tm.ctr.IncCAS()
		x.snapshot = x.validate()
	}
	x.holdsClock = true
	fpSWLocked.Hit()
	x.writes.Publish()
	x.tm.clock.Unlock()
	x.holdsClock = false
}

var _ stm.Algorithm = (*TM)(nil)
