// Package invalstm implements commit-time invalidation STM [Gottschlich,
// Vachharajani & Siek, CGO 2010], the baseline that Remote Invalidation
// (Chapter 6) extends. Instead of readers validating their own read sets
// (quadratic in reads, as in NOrec), a committing writer invalidates every
// in-flight transaction whose read bloom filter intersects its write bloom
// filter, making per-read work constant.
package invalstm

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
)

// clockTraceKey tags flight-recorder lock events for the single global
// commit lock, which has no per-cell identity.
const clockTraceKey = 1<<60 | 1

// fpCommitLocked fires with the global lock held, before victims are chosen
// or anything is published; recovery must restore the pre-lock timestamp
// and release the registry slot.
var fpCommitLocked = failpoint.New("invalstm.commit.locked")

// MaxTxs is the size of the in-flight transaction registry.
const MaxTxs = 256

// Desc is one registry slot: the published read filter and the doomed flag
// set by committing writers. It is exported for reuse by Remote
// Invalidation, which shares the registry design.
type Desc struct {
	Active      atomic.Bool
	Invalidated atomic.Bool
	// Starved counts consecutive invalidation aborts; the contention
	// manager makes committers defer to sufficiently starved transactions
	// (InvalSTM's CM decides whether the committer, rather than the
	// conflicting transactions, should wait or abort).
	Starved    atomic.Uint32
	ReadFilter [bloom.Words]atomic.Uint64
	_          spin.Pad
}

// StarveLimit is the consecutive-abort count at which the contention
// manager starts deferring committers to a doomed transaction.
const StarveLimit = 4

// ShouldDefer reports whether a committer with starvation level mine at
// registry slot mySlot must defer to the conflicting transaction d at slot.
// Non-starving committers always defer to starving transactions; among
// starving ones the lowest slot wins. The winner's priority is stable (it
// does not depend on the racing counters), so exactly one starving
// transaction at a time never defers and the system always progresses.
func ShouldDefer(d *Desc, slot int, mine uint32, mySlot int) bool {
	if d.Starved.Load() < StarveLimit {
		return false
	}
	return mine < StarveLimit || slot < mySlot
}

// ClearFilter empties the descriptor's published read filter.
func (d *Desc) ClearFilter() {
	for i := range d.ReadFilter {
		d.ReadFilter[i].Store(0)
	}
}

// IntersectsWrite reports whether the descriptor's read filter intersects a
// committer's write filter.
func (d *Desc) IntersectsWrite(wf *bloom.Filter) bool {
	for i := range wf {
		if d.ReadFilter[i].Load()&wf[i] != 0 {
			return true
		}
	}
	return false
}

// STM is an InvalSTM instance.
type STM struct {
	clock spin.SeqLock
	descs [MaxTxs]Desc
	ctr   spin.Counters
	*cm.Core
	pool sync.Pool
}

// New creates an InvalSTM instance.
func New() *STM {
	s := &STM{Core: cm.NewCore("InvalSTM")}
	s.pool.New = func() any { return &tx{s: s, slot: -1, h: s.NewHandle()} }
	return s
}

// Name implements stm.Algorithm.
func (s *STM) Name() string { return "InvalSTM" }

// Counters implements stm.Algorithm.
func (s *STM) Counters() *spin.Counters { return &s.ctr }

// Stop implements stm.Algorithm; InvalSTM has no background goroutines.
func (s *STM) Stop() {}

// tx is an InvalSTM transaction descriptor.
type tx struct {
	s          *STM
	h          cm.Handle
	slot       int
	holdsClock bool // global lock held (commit in progress)
	writeF     bloom.Filter
	writes     stm.WriteSet
	fn         func(stm.Tx)
}

// Atomic implements stm.Algorithm.
func (s *STM) Atomic(fn func(stm.Tx)) { s.AtomicCtx(nil, fn) }

// AtomicCtx implements stm.AlgorithmCtx: Atomic observing ctx, including
// while it waits for a registry slot. The slot is released and the
// descriptor pooled even when fn (or an armed failpoint) panics — a leaked
// Active slot would shrink the registry for the life of the process.
func (s *STM) AtomicCtx(ctx context.Context, fn func(stm.Tx)) error {
	t := s.pool.Get().(*tx)
	if err := t.acquireSlot(ctx); err != nil {
		s.Canceled()
		s.pool.Put(t)
		return err
	}
	t.fn = fn
	defer func() {
		t.fn = nil
		t.releaseSlot()
		t.writeF.Clear()
		t.writes.Reset()
		s.pool.Put(t)
	}()
	return t.h.Run(ctx, nil, t)
}

// acquireSlot claims a registry slot for the transaction's lifetime. With
// the registry full it waits for a stranger's transaction to finish, but no
// longer than ctx allows (nil never cancels).
func (t *tx) acquireSlot(ctx context.Context) error {
	var b spin.Backoff
	for {
		for i := range t.s.descs {
			d := &t.s.descs[i]
			if !d.Active.Load() && d.Active.CompareAndSwap(false, true) {
				d.Invalidated.Store(false)
				d.ClearFilter()
				t.slot = i
				return nil
			}
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		b.Wait()
	}
}

func (t *tx) releaseSlot() {
	d := &t.s.descs[t.slot]
	d.ClearFilter()
	d.Starved.Store(0) // the next occupant starts unstarved
	d.Active.Store(false)
	t.slot = -1
}

// Begin implements cm.Tx: start one attempt.
func (t *tx) Begin() {
	d := &t.s.descs[t.slot]
	d.ClearFilter()
	d.Invalidated.Store(false)
	t.writeF.Clear()
	t.writes.Reset()
}

// Run implements cm.Tx.
func (t *tx) Run() { t.fn(t) }

// Rollback implements cm.Tx: release the global lock if this attempt died
// holding it (an armed failpoint between lock and publish; nothing was
// published, so the pre-lock timestamp is restored), and note one more
// invalidation for the contention manager's starvation rule.
func (t *tx) Rollback(r abort.Reason) {
	if t.holdsClock {
		t.holdsClock = false
		t.s.clock.UnlockUnchanged()
	}
	if r == abort.Invalidated {
		t.s.descs[t.slot].Starved.Add(1)
	}
}

func (t *tx) desc() *Desc { return &t.s.descs[t.slot] }

// Read implements stm.Tx. The key is published to the read filter before the
// value is read under a stable (even, unchanged) timestamp; a committer that
// later overwrites the cell is thereby guaranteed to see the filter bit and
// invalidate this transaction.
func (t *tx) Read(c *mem.Cell) uint64 {
	if v, ok := t.writes.Get(c); ok {
		return v
	}
	d := t.desc()
	publishRead(d, c.ID())
	var b spin.Backoff
	for {
		ts := t.s.clock.WaitUnlocked(&t.s.ctr)
		v := c.Load()
		if t.s.clock.Load() == ts {
			if d.Invalidated.Load() {
				t.h.Trace().ValidateFail(c.ID())
				abort.Retry(abort.Invalidated)
			}
			return v
		}
		b.Wait()
	}
}

// publishRead sets the filter bits for key in the shared descriptor.
func publishRead(d *Desc, key uint64) {
	var f bloom.Filter
	f.Add(key)
	for i, w := range f {
		if w != 0 {
			d.ReadFilter[i].Or(w)
		}
	}
}

// Write implements stm.Tx; writes are buffered and recorded in the write
// filter used to invalidate conflicting readers at commit.
func (t *tx) Write(c *mem.Cell, v uint64) {
	t.writeF.Add(c.ID())
	t.writes.Put(c, v)
}

// Commit implements cm.Tx: publish the redo log under the global lock and
// invalidate every other in-flight transaction whose read filter intersects
// the write set.
func (t *tx) Commit() {
	d := t.desc()
	if t.writes.Len() == 0 {
		if d.Invalidated.Load() {
			t.h.Trace().ValidateFail(0)
			abort.Retry(abort.Invalidated)
		}
		return
	}
	start := t.s.Profile().Now()
	t.s.clock.Lock(&t.s.ctr)
	t.holdsClock = true
	t.h.Trace().Lock(clockTraceKey)
	fpCommitLocked.Hit()
	if d.Invalidated.Load() {
		t.holdsClock = false
		t.s.clock.Unlock()
		t.h.Trace().Unlock(clockTraceKey)
		t.s.Profile().AddCommit(start)
		t.h.Trace().ValidateFail(0)
		abort.Retry(abort.Invalidated)
	}
	// First pass (before publishing): find the victims, and let the
	// contention manager defer this commit if one of them is starving.
	// Deference is suspended while a transaction runs in serial mode: a
	// starving victim paused at the gate can never clear its own starvation,
	// so deferring to it would stall the escalated committer forever.
	mine := d.Starved.Load()
	serial := cm.SerialActive()
	var victims []*Desc
	for i := range t.s.descs {
		od := &t.s.descs[i]
		if i == t.slot || !od.Active.Load() || !od.IntersectsWrite(&t.writeF) {
			continue
		}
		if !serial && ShouldDefer(od, i, mine, t.slot) {
			t.holdsClock = false
			t.s.clock.Unlock()
			t.h.Trace().Unlock(clockTraceKey)
			t.s.Profile().AddCommit(start)
			t.h.Trace().NoteKey(0)
			abort.Retry(abort.Invalidated)
		}
		victims = append(victims, od)
	}
	t.writes.Publish()
	for _, od := range victims {
		od.Invalidated.Store(true)
	}
	t.s.clock.Unlock()
	t.holdsClock = false
	t.h.Trace().Unlock(clockTraceKey)
	t.s.Profile().AddCommit(start)
}

var _ stm.Algorithm = (*STM)(nil)
