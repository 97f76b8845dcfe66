// Package mvotb is the multi-version optimistic-transactional-boosting
// runtime: OTB's semantic sets and maps with per-key version chains, so
// read-only transactions pin a snapshot timestamp at begin and never
// validate, never lock, and never abort ("Optimized Multi-Version Object
// Based Transactional Systems", arXiv 1905.01200, over the PPoPP'14 OTB
// base).
//
// Updaters are ordinary OTB transactions: a Runtime is an OTB data structure
// (otb.Datastructure, the paper's Chapter 4 interface) that a Set or Map
// operation attaches to the caller's *otb.Tx, so otb.Atomic — or an
// integration context — drives it through the normal optimistic path
// (unmonitored traversal, semantic read/write sets, post-validation after
// every operation, a two-phase-locked commit), alone or together with any
// other OTB structure. Its OnCommit installs new versions atomically under
// per-bucket versioned locks, stamped by a global spin.ShardedClock.
// Readers resolve every key against their snapshot: the newest version with
// createTS <= snapshot. A background sweeper reclaims versions older than
// the minimum active snapshot through the shared epoch domain and publishes
// the live chain length as a telemetry gauge ("mvotb.chain.max").
//
//	rt := mvotb.New(mvotb.Options{})
//	defer rt.Stop()
//	set := rt.NewSet(1024)
//	otb.Atomic(nil, func(tx *otb.Tx) { set.Add(tx, 1) })
//	rt.ReadOnly(func(x *mvotb.STx) { _ = set.SnapContains(x, 1) })
//
// Snapshot rule (what makes readers abort-free): a writer ticks the clock
// to its commit timestamp T only while holding every bucket lock it will
// touch (the tick is in OnCommit, which otb.Tx.Commit runs only after every
// attached structure's PreCommit), and unlocks only after all its versions
// are installed (PostCommit). A reader that observed snapshot S before the
// tick has S < T and correctly skips the new versions; a reader whose S >= T
// can only have pinned S after the tick, hence after the locks were taken —
// so when it finds the bucket unlocked the versions are already installed,
// and when it finds the bucket locked it waits for the (short) install to
// finish. Either way the chain walk returns exactly the committed state at S.
package mvotb

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos/failpoint"
	"repro/internal/cm"
	"repro/internal/mem/epoch"
	"repro/internal/spin"
	"repro/internal/telemetry"
)

// Failpoints on the version-install and GC paths; disarmed they are one
// atomic load each.
var (
	// fpInstall fires at the end of the runtime's PreCommit, with every one of
	// its bucket locks held — the last point where no attached structure has
	// published anything (OnCommit cannot fail, so nothing may fire inside
	// it); recovery must release the locks with their versions unchanged.
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

// Runtime owns the version clock, the snapshot registry and the background
// sweeper, and is the otb.Datastructure its sets and maps attach to a
// transaction — one attachment for all of them, so a transaction spanning
// several tables commits at one timestamp. (Tables of different runtimes may
// meet in one transaction; each runtime then draws its own.)
type Runtime struct {
	clock spin.ShardedClock
	// Updaters are OTB transactions and record under OTB's meter; snapshot
	// readers record under ro, "MVOTB-RO", so a read-mostly run can prove the
	// snapshot path aborts zero times (its abort column is structurally
	// zero: no validation and no locks).
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

	roPool sync.Pool // *STx

	chainGauge *telemetry.Gauge
}

// New creates a runtime and starts its background sweeper. Call Stop when
// done (tests leak-check the GC goroutine).
func New(opts Options) *Runtime {
	rt := &Runtime{
		ro:         cm.NewCore("MVOTB-RO"),
		gcEvery:    opts.GCInterval,
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
		chainGauge: telemetry.G("mvotb.chain.max"),
	}
	if rt.gcEvery <= 0 {
		rt.gcEvery = DefaultGCInterval
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
	x.eg = epoch.Default.Enter()
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
	rt.chainGauge.Set(int64(rt.scan(rt.minActiveSnap(), true)))
}

// MaxChainLen reports the longest live version chain across the runtime's
// structures (tests and reporting).
func (rt *Runtime) MaxChainLen() int { return rt.scan(0, false) }

// scan walks every bucket of every table under an epoch pin and returns the
// longest version chain; with sweep set it also reclaims what is garbage
// relative to minSnap.
func (rt *Runtime) scan(minSnap uint64, sweep bool) (maxChain int) {
	g := epoch.Default.Enter()
	defer g.Exit()
	rt.tableMu.Lock()
	tables := rt.tables
	rt.tableMu.Unlock()
	for _, t := range tables {
		for i := range t.buckets {
			b := &t.buckets[i]
			longest, dirty := scanBucket(b, minSnap)
			maxChain = max(maxChain, longest)
			if !sweep || !dirty {
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
	return maxChain
}
