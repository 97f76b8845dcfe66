// Package mvotb is the multi-version optimistic-transactional-boosting
// runtime: OTB's semantic sets and maps with per-key version chains, so
// read-only transactions pin a snapshot timestamp at begin and never
// validate, never lock, and never abort ("Optimized Multi-Version Object
// Based Transactional Systems", arXiv 1905.01200, over the PPoPP'14 OTB
// base).
//
// Updaters run the normal OTB optimistic path — unmonitored traversal,
// semantic read/write sets, post-validation after every operation, a
// two-phase-locked commit — and install new versions atomically under
// per-bucket versioned locks, stamped by a global spin.ShardedClock.
// Readers resolve every key against their snapshot: the newest version with
// createTS <= snapshot. A background sweeper reclaims versions older than
// the minimum active snapshot through an epoch domain and publishes the
// live chain length as a telemetry gauge ("mvotb.chain.max").
//
//	rt := mvotb.New(mvotb.Options{})
//	defer rt.Stop()
//	set := rt.NewSet(1024)
//	rt.Atomic(func(tx *mvotb.Tx) { set.Add(tx, 1) })
//	rt.ReadOnly(func(x *mvotb.STx) { _ = set.SnapContains(x, 1) })
//
// Snapshot rule (what makes readers abort-free): a writer ticks the clock
// to its commit timestamp T only while holding every bucket lock it will
// touch, and unlocks only after all its versions are installed. A reader
// that observed snapshot S before the tick has S < T and correctly skips
// the new versions; a reader whose S >= T can only have pinned S after the
// tick, hence after the locks were taken — so when it finds the bucket
// unlocked the versions are already installed, and when it finds the bucket
// locked it waits for the (short) install to finish. Either way the chain
// walk returns exactly the committed state at S.
package mvotb

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/abort"
	"repro/internal/chaos/failpoint"
	"repro/internal/cm"
	"repro/internal/mem/epoch"
	"repro/internal/spin"
	"repro/internal/telemetry"
)

// Failpoints on the version-install and GC paths; disarmed they are one
// atomic load each.
var (
	// fpInstall fires inside commit after every bucket lock is held and the
	// read set validated, but before the clock tick and version install —
	// the most dangerous window; recovery must release the locks with their
	// versions unchanged (nothing was published).
	fpInstall = failpoint.New("mvotb.commit.install")
	// fpGCSweep fires at the top of a GC cycle, before the sweeper takes
	// any bucket lock. The GC goroutine recovers injected panics and keeps
	// sweeping (crash coverage must not kill collection for the process
	// lifetime).
	fpGCSweep = failpoint.New("mvotb.gc.sweep")
)

// DefaultGCInterval is the background sweep period when Options.GCInterval
// is zero.
const DefaultGCInterval = 25 * time.Millisecond

// Options configures a Runtime.
type Options struct {
	// GCInterval is the background version-sweep period (0 means
	// DefaultGCInterval). Tests shorten it to provoke collection.
	GCInterval time.Duration
}

// snapSlot publishes one reader's active snapshot timestamp (0 = idle) on
// its own cache line. Slots are bound to pooled STx descriptors once and
// scanned by the sweeper.
type snapSlot struct {
	ts atomic.Uint64
	_  [spin.CacheLineSize - 8]byte
}

// Runtime owns the version clock, the snapshot registry, the epoch domain
// the structures retire into, and the background sweeper. Structures from
// different runtimes must not meet in one transaction (they would carry
// unrelated timestamps).
type Runtime struct {
	clock spin.ShardedClock
	mem   *epoch.Manager
	// Updaters record under the embedded "MVOTB" core (whose SetManager
	// governs them; read-only transactions never contend, so no manager
	// applies), snapshot readers under ro, "MVOTB-RO" — split so a
	// read-mostly run can prove the snapshot path aborts zero times (its
	// abort column is structurally zero: no validation and no locks).
	*cm.Core
	ro *cm.Core

	// snapMu guards slot registration and the sweeper's scan; the snapshot
	// hot path touches it only on its (rare) confirm-loop fallback.
	snapMu    sync.Mutex
	snapSlots []*snapSlot

	tableMu sync.Mutex
	tables  []*table

	gcEvery time.Duration
	quit    chan struct{}
	done    chan struct{}
	stopped sync.Once

	updPool sync.Pool // *updRunner
	roPool  sync.Pool // *STx

	chainGauge *telemetry.Gauge
}

// New creates a runtime and starts its background sweeper. Call Stop when
// done (tests leak-check the GC goroutine).
func New(opts Options) *Runtime {
	rt := &Runtime{
		Core:       cm.NewCore("MVOTB"),
		ro:         cm.NewCore("MVOTB-RO"),
		mem:        epoch.NewManager(),
		gcEvery:    opts.GCInterval,
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
		chainGauge: telemetry.G("mvotb.chain.max"),
	}
	if rt.gcEvery <= 0 {
		rt.gcEvery = DefaultGCInterval
	}
	rt.updPool.New = func() any {
		r := &updRunner{h: rt.NewHandle(), tx: &Tx{rt: rt}}
		r.tx.tr, r.tx.hint = r.h.Trace(), r.h.Hint()
		return r
	}
	rt.roPool.New = func() any {
		x := &STx{rt: rt, slot: &snapSlot{}, h: rt.ro.NewHandle()}
		rt.snapMu.Lock()
		rt.snapSlots = append(rt.snapSlots, x.slot)
		rt.snapMu.Unlock()
		return x
	}
	go rt.gcLoop()
	return rt
}

// Stop halts the background sweeper and waits for it to exit. Idempotent.
func (rt *Runtime) Stop() {
	rt.stopped.Do(func() { close(rt.quit) })
	<-rt.done
}

// tableList snapshots the registered tables.
func (rt *Runtime) tableList() []*table {
	rt.tableMu.Lock()
	out := rt.tables
	rt.tableMu.Unlock()
	return out
}

// --- read-only (snapshot) transactions ---

// STx is a read-only snapshot transaction: it holds a snapshot timestamp
// pinned at begin and resolves every read against it. It records no read
// set, takes no locks, and cannot abort.
type STx struct {
	rt   *Runtime
	snap uint64
	slot *snapSlot
	eg   *epoch.Guard
	h    cm.Handle
}

// Snapshot returns the transaction's pinned timestamp (tests and tracing).
func (x *STx) Snapshot() uint64 { return x.snap }

// pinSnapshot publishes the snapshot before relying on it, so a concurrent
// sweep can never reclaim versions this reader still needs. The sweeper
// loads the clock BEFORE scanning slots; we store our candidate and confirm
// the clock did not move past it — if the confirm load still reads s, any
// sweep that missed our slot loaded the clock before it advanced beyond s,
// so its bound is <= s. A moved clock retries (the stale published value is
// smaller, hence safely conservative); persistent movement falls back to
// the registration mutex, under which the same ordering argument is direct.
func (x *STx) pinSnapshot() {
	rt := x.rt
	for i := 0; i < 4; i++ {
		s := rt.clock.Load()
		x.slot.ts.Store(s)
		if rt.clock.Load() == s {
			x.snap = s
			return
		}
	}
	rt.snapMu.Lock()
	s := rt.clock.Load()
	x.slot.ts.Store(s)
	rt.snapMu.Unlock()
	x.snap = s
}

// ReadOnly runs fn as a snapshot transaction. The body executes exactly
// once: there is no validation and no retry loop, hence no abort — the
// guarantee the whole runtime exists for.
func (rt *Runtime) ReadOnly(fn func(*STx)) {
	_ = rt.ReadOnlyCtx(nil, fn)
}

// ReadOnlyCtx is ReadOnly observing ctx: cancellation is checked once at
// begin (a running snapshot body never blocks on other transactions beyond
// a bounded install wait, so mid-flight cancellation has nothing to
// interrupt).
func (rt *Runtime) ReadOnlyCtx(ctx context.Context, fn func(*STx)) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	x := rt.roPool.Get().(*STx)
	sp := x.h.Start()
	x.eg = rt.mem.Enter()
	x.pinSnapshot()
	defer func() {
		x.slot.ts.Store(0)
		x.eg.Exit()
		x.eg = nil
		x.h.End()
		rt.roPool.Put(x)
	}()
	fn(x)
	x.h.Commit(sp)
	return nil
}

// --- updater transactions ---

// updRunner is the pooled descriptor of one updater transaction; it
// implements cm.Tx.
type updRunner struct {
	h  cm.Handle
	tx *Tx
	fn func(*Tx)
}

func (r *updRunner) Begin() {
	r.tx.reset()
	r.tx.eg = r.tx.rt.mem.Enter()
}

func (r *updRunner) Run() { r.fn(r.tx) }

func (r *updRunner) Commit() {
	r.tx.commit()
	r.tx.unpin()
}

func (r *updRunner) Rollback(abort.Reason) {
	r.tx.rollback()
	r.tx.unpin()
}

// Atomic runs fn as an updater transaction, retrying on abort until commit.
func (rt *Runtime) Atomic(fn func(*Tx)) {
	_ = rt.AtomicCtx(nil, fn)
}

// AtomicCtx is Atomic observing ctx: cancellation or deadline expiry is
// checked at every retry-loop top and inside contention-management waits; an
// abandoned transaction is recorded as abort.Canceled and the context's
// error is returned (nil after a successful commit).
func (rt *Runtime) AtomicCtx(ctx context.Context, fn func(*Tx)) error {
	r := rt.updPool.Get().(*updRunner)
	r.fn = fn
	defer func() {
		r.tx.reset()
		r.fn = nil
		rt.updPool.Put(r)
	}()
	return r.h.Run(ctx, nil, r)
}

// --- background version GC ---

// minActiveSnap returns the sweep bound: no version visible at or after it
// may be reclaimed. The clock is loaded before the slot scan — see
// pinSnapshot for why that order makes the bound safe against readers
// registering concurrently.
func (rt *Runtime) minActiveSnap() uint64 {
	m := rt.clock.Load()
	rt.snapMu.Lock()
	for _, s := range rt.snapSlots {
		if v := s.ts.Load(); v != 0 && v < m {
			m = v
		}
	}
	rt.snapMu.Unlock()
	return m
}

func (rt *Runtime) gcLoop() {
	defer close(rt.done)
	t := time.NewTicker(rt.gcEvery)
	defer t.Stop()
	for {
		select {
		case <-rt.quit:
			return
		case <-t.C:
			rt.gcSafe()
		}
	}
}

// gcSafe runs one sweep, recovering injected failpoint panics only: fault
// injection must not kill the process-lifetime collector, while a genuine
// bug still crashes loudly. The failpoint fires before any lock or epoch
// pin is taken, so recovery holds nothing.
func (rt *Runtime) gcSafe() {
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(*failpoint.PanicValue); ok {
				return
			}
			panic(p)
		}
	}()
	rt.gcOnce()
}

// GC runs one synchronous collection cycle. The background loop calls the
// same sweep on a ticker; tests call it directly to make reclamation
// deterministic.
func (rt *Runtime) GC() { rt.gcOnce() }

func (rt *Runtime) gcOnce() {
	fpGCSweep.Hit()
	minSnap := rt.minActiveSnap()
	g := rt.mem.Enter()
	defer g.Exit()
	maxChain := 0
	for _, t := range rt.tableList() {
		for i := range t.buckets {
			b := &t.buckets[i]
			longest, dirty := scanBucket(b, minSnap)
			if longest > maxChain {
				maxChain = longest
			}
			if !dirty {
				continue
			}
			if _, ok := b.lock.TryLock(); !ok {
				continue // a committer owns it; next cycle
			}
			sweepBucket(b, minSnap, g)
			// The sweep preserves every semantic fact an updater could have
			// read (it only discards shadowed versions and provably-absent
			// tombstone nodes), so the lock version is restored unchanged
			// and concurrent validations are not spuriously invalidated.
			b.lock.UnlockUnchanged()
		}
	}
	rt.chainGauge.Set(int64(maxChain))
}

// MaxChainLen reports the longest live version chain across the runtime's
// structures (epoch-pinned scan; tests and reporting).
func (rt *Runtime) MaxChainLen() int {
	g := rt.mem.Enter()
	defer g.Exit()
	longest := 0
	for _, t := range rt.tableList() {
		for i := range t.buckets {
			if l, _ := scanBucket(&t.buckets[i], 0); l > longest {
				longest = l
			}
		}
	}
	return longest
}
