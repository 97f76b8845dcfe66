// Package tl2 implements TL2 [Dice, Shalev & Shavit, DISC 2006]: a lazy STM
// with a global version clock and striped ownership records ("orecs"). TL2
// is the fine-grained-locking counterpart of NOrec in the OTB integration
// study (Chapter 4) and in the microbenchmark comparisons of Chapter 5.
//
// Protocol summary:
//   - Begin: sample the global version clock (rv).
//   - Read: sample the cell's orec before and after the read; abort if the
//     orec is locked, changed, or newer than rv.
//   - Commit (writers): lock the write-set orecs in a global order,
//     increment the clock to obtain wv, validate the read-set orecs, publish
//     the redo log, then release the orecs stamped with wv.
//
// Two clock flavors are provided. New uses the classic single fetch-add
// clock, which admits the "wv == rv+1 ⇒ skip read validation" fast path.
// NewSharded (algorithm name "TL2S") spreads the clock across
// cache-line-padded shards so committers do not serialize on one line; a
// sharded clock cannot order two concurrent ticks, so the skip is unsound
// and TL2S always validates its read set (see DESIGN.md).
package tl2

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

// fpCommitLocked fires with the write-set orecs locked, before anything is
// published; recovery must restore the pre-lock orec versions. (The clock
// may already have advanced — harmless: TL2 readers tolerate clock skips.)
var fpCommitLocked = failpoint.New("tl2.commit.locked")

// orecBits sets the ownership-record table size (2^orecBits stripes).
const orecBits = 16

// orecCount is the number of ownership records.
const orecCount = 1 << orecBits

// An orec packs a lock bit (LSB) with the version of the last committed
// write to any cell in its stripe (remaining bits).
type orec struct {
	v atomic.Uint64
	_ [spin.CacheLineSize - 8]byte
}

func orecLocked(v uint64) bool    { return v&1 == 1 }
func orecVersion(v uint64) uint64 { return v >> 1 }

// STM is a TL2 instance.
type STM struct {
	name    string
	clock   atomic.Uint64
	_       [spin.CacheLineSize - 8]byte // keep clock off the orecs' lines
	sharded *spin.ShardedClock           // nil: use the global clock
	orecs   []orec
	ctr     spin.Counters
	*cm.Core
	pool sync.Pool
}

// New creates a TL2 instance with its own global clock and orec table.
func New() *STM { return newSTM("TL2", nil) }

// NewSharded creates a TL2 instance whose version clock is sharded across
// cache lines (algorithm name "TL2S"). Sharded transactions always validate
// their read sets at commit: the wv == rv+1 skip requires the clock to
// totally order commits, which a sharded clock does not.
func NewSharded() *STM { return newSTM("TL2S", new(spin.ShardedClock)) }

func newSTM(name string, sc *spin.ShardedClock) *STM {
	s := &STM{name: name, sharded: sc, orecs: make([]orec, orecCount), Core: cm.NewCore(name)}
	s.pool.New = func() any { return &tx{s: s, h: s.NewHandle()} }
	return s
}

// Name implements stm.Algorithm.
func (s *STM) Name() string { return s.name }

// Counters implements stm.Algorithm.
func (s *STM) Counters() *spin.Counters { return &s.ctr }

// Stop implements stm.Algorithm; TL2 has no background goroutines.
func (s *STM) Stop() {}

// clockLoad samples the version clock (either flavor).
func (s *STM) clockLoad() uint64 {
	if s.sharded != nil {
		return s.sharded.Load()
	}
	return s.clock.Load()
}

// clockTick obtains a fresh write version. hint pins a sharded committer to
// its own cache line; the global clock ignores it.
func (s *STM) clockTick(hint uint32) uint64 {
	if s.sharded != nil {
		return s.sharded.Tick(hint)
	}
	return s.clock.Add(1)
}

// orecIdx maps a cell to its ownership-record index by hashing the cell id.
func orecIdx(c *mem.Cell) int {
	h := c.ID() * 0x9e3779b97f4a7c15
	return int(h >> (64 - orecBits))
}

// orecFor maps a cell to its ownership record.
func (s *STM) orecFor(c *mem.Cell) *orec {
	return &s.orecs[orecIdx(c)]
}

// orecTraceKey names an orec stripe in flight-recorder attributions. The
// high tag bit keeps stripe keys disjoint from cell ids in conflict tables.
func orecTraceKey(idx int) uint64 { return uint64(idx) | 1<<62 }

// tx is a TL2 transaction descriptor. It implements cm.Tx and carries
// scratch slices (reads, locked, seen) that amortize to zero steady-state
// allocation.
type tx struct {
	s      *STM
	h      cm.Handle
	rv     uint64
	reads  []*orec
	writes stm.WriteSet
	locked []lockedOrec
	seen   []lockedOrec // lockWriteSet scratch: distinct orecs, sorted by idx
	fn     func(stm.Tx)
}

type lockedOrec struct {
	o   *orec
	idx int    // table index, the global locking order
	old uint64 // pre-lock value, restored on abort
}

// Atomic implements stm.Algorithm.
func (s *STM) Atomic(fn func(stm.Tx)) { s.AtomicCtx(nil, fn) }

// AtomicCtx implements stm.AlgorithmCtx: Atomic observing ctx. The
// descriptor returns to its pool even when fn (or an armed failpoint)
// panics — the rollback path has already restored the locked orecs by then.
func (s *STM) AtomicCtx(ctx context.Context, fn func(stm.Tx)) error {
	t := s.pool.Get().(*tx)
	t.fn = fn
	defer func() {
		t.fn = nil
		t.reset()
		s.pool.Put(t)
	}()
	return t.h.Run(ctx, nil, t)
}

// Begin implements cm.Tx: start one attempt.
func (t *tx) Begin() {
	t.reset()
	t.rv = t.s.clockLoad()
}

// Run implements cm.Tx.
func (t *tx) Run() { t.fn(t) }

// Rollback implements cm.Tx: restore the orecs a failed commit had locked.
func (t *tx) Rollback(abort.Reason) { t.releaseLocked(true) }

func (t *tx) reset() {
	t.reads = t.reads[:0]
	t.writes.Reset()
	t.locked = t.locked[:0]
	t.seen = t.seen[:0]
}

// Read implements stm.Tx with TL2's pre/post orec sampling.
func (t *tx) Read(c *mem.Cell) uint64 {
	if v, ok := t.writes.Get(c); ok {
		return v
	}
	o := t.s.orecFor(c)
	v1 := o.v.Load()
	val := c.Load()
	v2 := o.v.Load()
	if v1 != v2 || orecLocked(v1) || orecVersion(v1) > t.rv {
		t.h.Trace().ValidateFail(c.ID())
		abort.Retry(abort.Conflict)
	}
	t.reads = append(t.reads, o)
	return val
}

// Write implements stm.Tx; writes are buffered until commit.
func (t *tx) Write(c *mem.Cell, v uint64) {
	t.writes.Put(c, v)
}

// Commit implements cm.Tx: TL2's lock / clock / validate / publish / release
// sequence.
func (t *tx) Commit() {
	if t.writes.Len() == 0 {
		return
	}
	start := t.s.Profile().Now()
	t.lockWriteSet()
	fpCommitLocked.Hit()
	wv := t.s.clockTick(t.h.Hint())
	t.s.Profile().AddCommit(start)
	// The classic skip — no other transaction committed between rv and wv,
	// so the read set cannot have changed — needs the clock to totally order
	// commits. The sharded clock does not, so TL2S always validates.
	if t.s.sharded != nil || wv != t.rv+1 {
		t.validateReads()
	}
	start = t.s.Profile().Now()
	t.writes.Publish()
	for _, l := range t.locked {
		l.o.v.Store(wv << 1)
	}
	t.locked = t.locked[:0]
	t.s.Profile().AddCommit(start)
}

// lockWriteSet acquires the distinct orecs covering the write set in
// ascending table order (deadlock avoidance); any busy orec aborts the
// transaction, releasing what was acquired. The dedup-and-sort runs on the
// descriptor's scratch slice with an insertion sort: write sets are small
// and sort.Slice's reflection allocates.
func (t *tx) lockWriteSet() {
	t.seen = t.seen[:0]
	for _, e := range t.writes.Entries() {
		idx := orecIdx(e.Cell)
		dup := false
		for _, l := range t.seen {
			if l.idx == idx {
				dup = true
				break
			}
		}
		if !dup {
			t.seen = append(t.seen, lockedOrec{o: &t.s.orecs[idx], idx: idx})
		}
	}
	for i := 1; i < len(t.seen); i++ {
		for j := i; j > 0 && t.seen[j].idx < t.seen[j-1].idx; j-- {
			t.seen[j], t.seen[j-1] = t.seen[j-1], t.seen[j]
		}
	}
	t.locked = t.locked[:0]
	for _, l := range t.seen {
		v := l.o.v.Load()
		if orecLocked(v) || orecVersion(v) > t.rv || !l.o.v.CompareAndSwap(v, v|1) {
			t.s.ctr.IncCAS()
			t.h.Trace().LockBusy(orecTraceKey(l.idx))
			abort.Retry(abort.LockBusy)
		}
		t.h.Trace().Lock(orecTraceKey(l.idx))
		t.locked = append(t.locked, lockedOrec{o: l.o, idx: l.idx, old: v})
	}
}

// validateReads checks every read-set orec: it must be unlocked (or locked
// by this transaction) with a version no newer than rv.
func (t *tx) validateReads() {
	start := t.s.Profile().Now()
	defer t.s.Profile().AddValidation(start)
	for _, o := range t.reads {
		v := o.v.Load()
		if orecLocked(v) {
			old, mine := t.ownedOld(o)
			if !mine || orecVersion(old) > t.rv {
				abort.Retry(abort.Conflict)
			}
			continue
		}
		if orecVersion(v) > t.rv {
			abort.Retry(abort.Conflict)
		}
	}
	t.h.Trace().Validated()
}

// ownedOld reports whether this transaction holds o, returning the pre-lock
// value if so.
func (t *tx) ownedOld(o *orec) (uint64, bool) {
	for _, l := range t.locked {
		if l.o == o {
			return l.old, true
		}
	}
	return 0, false
}

// releaseLocked unlocks any orecs held by an aborting transaction. With
// restore=true the pre-lock versions are put back (no writes were
// published).
func (t *tx) releaseLocked(restore bool) {
	for _, l := range t.locked {
		if restore {
			l.o.v.Store(l.old)
		} else {
			l.o.v.Store(l.old &^ 1)
		}
	}
	t.locked = t.locked[:0]
}

var _ stm.Algorithm = (*STM)(nil)
