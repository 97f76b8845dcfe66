// Package invalstm implements commit-time invalidation STM [Gottschlich,
// Vachharajani & Siek, CGO 2010], the baseline that Remote Invalidation
// (Chapter 6) extends. Instead of readers validating their own read sets
// (quadratic in reads, as in NOrec), a committing writer invalidates every
// in-flight transaction whose read bloom filter intersects its write bloom
// filter, making per-read work constant.
//
// Remote Invalidation (package rinval) runs on this package's client half
// and registry scan: its clients are Clients bound to slots of a Registry
// of their own, and its servers find and doom victims with Registry.Find
// and Registry.Doom, as Commit does here under the global lock.
package invalstm

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

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
// set by committing writers.
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

// Release empties the slot for its next occupant: the filter cleared, the
// starvation forgotten, the slot inactive.
func (d *Desc) Release() {
	d.ClearFilter()
	d.Starved.Store(0)
	d.Active.Store(false)
}

// Registry is the table of in-flight transactions a committer scans for
// victims: InvalSTM's MaxTxs slots, or one slot per client of a Remote
// Invalidation instance.
type Registry []Desc

// Victims is a committer's set of registry slots to doom, one bit per slot.
// It is sized once to its registry, so a commit that dooms readers
// allocates nothing.
type Victims []uint64

// NewVictims returns a victim set for a registry of n slots.
func NewVictims(n int) Victims { return make(Victims, (n+63)/64) }

// Find sets v to the active transactions, other than the committer at slot
// self, whose read filters intersect the committer's write filter wf, and
// reports whether the contention manager says the committer must defer to
// one of them (ShouldDefer).
func (r Registry) Find(v Victims, self int, wf *bloom.Filter) (deferTo bool) {
	clear(v)
	mine := r[self].Starved.Load()
	for i := range r {
		d := &r[i]
		if i == self || !d.Active.Load() || !d.IntersectsWrite(wf) {
			continue
		}
		v[i/64] |= 1 << (i % 64)
		deferTo = deferTo || ShouldDefer(d, i, mine, self)
	}
	return deferTo
}

// Doom invalidates every transaction in v.
func (r Registry) Doom(v Victims) {
	for w, word := range v {
		for ; word != 0; word &= word - 1 {
			r[w*64+bits.TrailingZeros64(word)].Invalidated.Store(true)
		}
	}
}

// Client is the client half of an InvalSTM descriptor, bound to one
// registry slot: it publishes each read to the slot's read filter, buffers
// its writes and records them in a write filter, commits read-only attempts
// and notes invalidations for the contention manager. Committing writes is
// the caller's: InvalSTM's under the global lock, Remote Invalidation's on
// its servers. InvalSTM binds a slot per transaction; Remote Invalidation
// binds each client to one for life.
type Client struct {
	clock  *spin.SeqLock
	ctr    *spin.Counters
	h      cm.Handle
	d      *Desc
	wf     bloom.Filter
	writes stm.WriteSet
}

// NewClient returns a client half that reads under clock, counts its spins
// in ctr and runs on h. It must be bound to a slot before it begins.
func NewClient(clock *spin.SeqLock, ctr *spin.Counters, h cm.Handle) Client {
	return Client{clock: clock, ctr: ctr, h: h}
}

// Bind ties the client to registry slot d.
func (c *Client) Bind(d *Desc) { c.d = d }

// Handle is the descriptor's lifecycle handle, which runs it.
func (c *Client) Handle() *cm.Handle { return &c.h }

// Begin implements cm.Tx: start one attempt.
func (c *Client) Begin() {
	c.d.ClearFilter()
	c.d.Invalidated.Store(false)
	c.Reset()
}

// Reset empties the write set and the write filter.
func (c *Client) Reset() {
	c.wf.Clear()
	c.writes.Reset()
}

// Rollback implements cm.Tx's starvation rule: an invalidation is noted for
// the contention manager. Nothing else is held client-side.
func (c *Client) Rollback(r abort.Reason) {
	if r == abort.Invalidated {
		c.d.Starved.Add(1)
	}
}

// Read implements stm.Tx. The key is published to the read filter before the
// value is read under a stable (even, unchanged) timestamp; a committer that
// later overwrites the cell is thereby guaranteed to see the filter bit and
// invalidate this transaction. The read is not timed: it validates
// nothing, so the profiler counts its waits for the clock as "other".
func (c *Client) Read(cell *mem.Cell) uint64 {
	if v, ok := c.writes.Get(cell); ok {
		return v
	}
	publishRead(c.d, cell.ID())
	var b spin.Backoff
	for {
		ts := c.clock.WaitUnlocked(c.ctr)
		v := cell.Load()
		if c.clock.Load() == ts {
			if c.d.Invalidated.Load() {
				c.h.Trace().ValidateFail(cell.ID())
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
func (c *Client) Write(cell *mem.Cell, v uint64) {
	c.wf.Add(cell.ID())
	c.writes.Put(cell, v)
}

// CommitReadOnly commits the attempt if it wrote nothing, and reports
// whether it did. A read-only attempt that a committer doomed aborts with
// Invalidated; one that was not doomed read a consistent snapshot.
func (c *Client) CommitReadOnly() bool {
	if c.writes.Len() != 0 {
		return false
	}
	if c.d.Invalidated.Load() {
		c.h.Trace().ValidateFail(0)
		abort.Retry(abort.Invalidated)
	}
	return true
}

// WriteFilter returns the filter of the cells written.
func (c *Client) WriteFilter() *bloom.Filter { return &c.wf }

// Publish writes the buffered writes back to memory; the caller holds the
// clock.
func (c *Client) Publish() { c.writes.Publish() }

// STM is an InvalSTM instance.
type STM struct {
	clock spin.SeqLock
	reg   Registry
	ctr   spin.Counters
	*cm.Core
	pool sync.Pool
}

// New creates an InvalSTM instance.
func New() *STM {
	s := &STM{reg: make(Registry, MaxTxs), Core: cm.NewCore("InvalSTM")}
	s.pool.New = func() any {
		return &tx{Client: NewClient(&s.clock, &s.ctr, s.NewHandle()), s: s, slot: -1}
	}
	return s
}

// Name implements stm.Algorithm.
func (s *STM) Name() string { return "InvalSTM" }

// Counters implements stm.Algorithm.
func (s *STM) Counters() *spin.Counters { return &s.ctr }

// Stop implements stm.Algorithm; InvalSTM has no background goroutines.
func (s *STM) Stop() {}

// tx is an InvalSTM transaction descriptor: the client half plus the
// commit under the global lock.
type tx struct {
	Client
	s          *STM
	slot       int
	holdsClock bool // global lock held (commit in progress)
	victims    [MaxTxs / 64]uint64
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
		t.s.reg[t.slot].Release()
		t.slot = -1
		t.Reset()
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
		for i := range t.s.reg {
			d := &t.s.reg[i]
			if !d.Active.Load() && d.Active.CompareAndSwap(false, true) {
				t.slot = i
				t.Bind(d)
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
	t.Client.Rollback(r)
}

// Commit implements cm.Tx: publish the redo log under the global lock and
// invalidate every other in-flight transaction whose read filter intersects
// the write set.
func (t *tx) Commit() {
	if t.CommitReadOnly() {
		return
	}
	start := t.s.Profile().Now()
	t.s.clock.Lock(&t.s.ctr)
	t.holdsClock = true
	t.h.Trace().Lock(clockTraceKey)
	fpCommitLocked.Hit()
	if t.d.Invalidated.Load() {
		t.unlock(start)
		t.h.Trace().ValidateFail(0)
		abort.Retry(abort.Invalidated)
	}
	// Find the victims before publishing, and let the contention manager
	// defer this commit if one of them is starving. Deference is suspended
	// while a transaction runs in serial mode: a starving victim paused at
	// the gate can never clear its own starvation, so deferring to it would
	// stall the escalated committer forever.
	if t.s.reg.Find(t.victims[:], t.slot, &t.wf) && !cm.SerialActive() {
		t.unlock(start)
		t.h.Trace().NoteKey(0)
		abort.Retry(abort.Invalidated)
	}
	t.writes.Publish()
	t.s.reg.Doom(t.victims[:])
	t.unlock(start)
}

// unlock releases the global lock, published or not, and charges the
// commit timer from start.
func (t *tx) unlock(start time.Time) {
	t.holdsClock = false
	t.s.clock.Unlock()
	t.h.Trace().Unlock(clockTraceKey)
	t.s.Profile().AddCommit(start)
}

var _ stm.Algorithm = (*STM)(nil)
