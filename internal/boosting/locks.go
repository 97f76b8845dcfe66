// Package boosting implements Herlihy & Koskinen's (pessimistic)
// transactional boosting [PPoPP 2008], the baseline OTB is evaluated
// against: a semantic layer of abstract read/write locks acquired eagerly at
// operation time and held to transaction end (two-phase locking), plus a
// semantic undo log of inverse operations replayed on abort. The underlying
// concurrent data structures (package conc) are used as black boxes.
package boosting

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/abort"
	"repro/internal/chaos/failpoint"
	"repro/internal/cm"
	"repro/internal/spin"
	"repro/internal/trace"
)

// Failpoints on the boosting lock and commit paths.
var (
	// fpLockPartial fires when a transaction that already holds at least one
	// abstract lock goes to acquire another — the partial-lock-set window.
	// Recovery must replay the undo log and release the held locks in
	// reverse acquisition order.
	fpLockPartial = failpoint.New("boosting.lock.partial")
	// fpCommitPre fires at the top of commit, with all abstract locks and
	// eager writes in place.
	fpCommitPre = failpoint.New("boosting.commit.pre")
)

// RWLock is an abstract reader/writer lock: state counts readers, or is -1
// when write-held. A waiting-writers gate gives writers priority — without
// it, a stream of commutative readers (e.g. priority-queue Adds holding the
// shared side) starves RemoveMin writers indefinitely, livelocking the
// whole queue. Locks are transaction-scoped; a Tx tracks what it holds and
// releases everything at commit or abort.
type RWLock struct {
	state   atomic.Int64
	waiting atomic.Int64 // writers currently spinning for the lock
	_       spin.Pad
}

// tryRead increments the reader count unless a writer holds the lock or is
// waiting for it (writer priority).
func (l *RWLock) tryRead() bool {
	if l.waiting.Load() > 0 {
		return false
	}
	s := l.state.Load()
	return s >= 0 && l.state.CompareAndSwap(s, s+1)
}

// tryWrite acquires exclusively when the lock is free.
func (l *RWLock) tryWrite() bool {
	return l.state.CompareAndSwap(0, -1)
}

// tryUpgrade turns a sole read hold into a write hold.
func (l *RWLock) tryUpgrade() bool {
	return l.state.CompareAndSwap(1, -1)
}

func (l *RWLock) releaseRead()  { l.state.Add(-1) }
func (l *RWLock) releaseWrite() { l.state.Store(0) }

// downgradeFromUpgrade reverts an upgraded lock back to a read hold.
func (l *RWLock) downgradeFromUpgrade() { l.state.Store(1) }

// LockTable stripes abstract per-key locks, standing in for the original's
// lock-per-key hash map.
type LockTable struct {
	stripes []RWLock
	mask    uint64
}

// NewLockTable creates a table with n stripes (rounded up to a power of
// two).
func NewLockTable(n int) *LockTable {
	size := 1
	for size < n {
		size *= 2
	}
	return &LockTable{stripes: make([]RWLock, size), mask: uint64(size - 1)}
}

// For returns the lock guarding key.
func (t *LockTable) For(key int64) *RWLock {
	h := uint64(key) * 0x9e3779b97f4a7c15
	return &t.stripes[(h>>32)&t.mask]
}

// lockMode distinguishes how a Tx holds an RWLock.
type lockMode int8

const (
	readHeld lockMode = iota
	writeHeld
	upgradedHeld // write-held, but was read-held first (release restores read? no: released fully)
)

type heldLock struct {
	lock *RWLock
	mode lockMode
	key  uint64 // flight-recorder attribution key noted at acquisition
}

// inverser is implemented by boosted structures that can apply the inverse
// of a recorded operation from a compact (key, code) pair. Typed undo
// entries keep the per-operation hot path free of closure allocations; the
// codes are the inv* constants below.
type inverser interface {
	applyInverse(key int64, code int8)
}

// Undo codes, one per invertible boosted operation.
const (
	invSetAdd      int8 = iota // inverse of Set.Add: remove the key
	invSetRemove               // inverse of Set.Remove: re-add the key
	invPQAdd                   // inverse of PQ.Add: mark the key logically deleted
	invPQRemoveMin             // inverse of PQ.RemoveMin: re-insert the key
)

// undoEntry is one recorded inverse: either a typed (target, key, code)
// triple or, for arbitrary callers of OnAbort, a plain closure.
type undoEntry struct {
	target inverser // nil when fn is set
	fn     func()
	key    int64
	code   int8
}

// run applies the inverse.
func (u *undoEntry) run() {
	if u.fn != nil {
		u.fn()
		return
	}
	u.target.applyInverse(u.key, u.code)
}

// Tx is a pessimistic-boosting transaction: the set of abstract locks held
// and the semantic undo log of inverse operations.
type Tx struct {
	held []heldLock
	undo []undoEntry
	ctr  *spin.Counters
	tr   *trace.Local
	// lockKey is the attribution key for the lock currently being acquired,
	// noted by the semantic layer before each Acquire* call (0 = unknown).
	lockKey uint64
}

// noteLockKey records the abstract key behind the next lock acquisition so
// timeout aborts and lock events name the contended key, not the stripe.
func (tx *Tx) noteLockKey(k uint64) {
	tx.lockKey = k
	tx.tr.NoteKey(k)
}

// core is the lifecycle core of boosted transactions. On its meter,
// exhausted lock-acquisition spins show up under the timeout reason, locks
// observed busy at acquisition under lock-busy. The manager's policy also
// sets the abstract-lock acquisition timeout (Policy.LockAttempts).
var core = cm.NewCore("PessimisticBoosted")

// SetManager installs the contention manager (nil restores the shared
// default). Safe during live traffic.
func SetManager(m *cm.Manager) { core.SetManager(m) }

// txPool recycles transaction descriptors (with their shard-bound recording
// handles) across Atomic calls.
var txPool = sync.Pool{New: func() any {
	r := &boostRunner{h: core.NewHandle(), tx: &Tx{}}
	r.tx.tr = r.h.Trace()
	return r
}}

// boostRunner is the pooled descriptor of one boosted transaction; it
// implements cm.Tx.
type boostRunner struct {
	h  cm.Handle
	tx *Tx
	fn func(*Tx)
}

func (r *boostRunner) Begin() {
	r.tx.held = r.tx.held[:0]
	clearUndo(r.tx.undo)
	r.tx.undo = r.tx.undo[:0]
}

func (r *boostRunner) Run() { r.fn(r.tx) }

func (r *boostRunner) Commit() { r.tx.commit() }

func (r *boostRunner) Rollback(abort.Reason) { r.tx.rollback() }

// Atomic runs fn as a boosted transaction, retrying on abort. Stats and
// counters may be nil.
func Atomic(stats *abort.Stats, ctr *spin.Counters, fn func(*Tx)) {
	AtomicCtx(nil, stats, ctr, fn)
}

// AtomicCtx is Atomic observing ctx: cancellation is checked at retry-loop
// tops and in contention-management waits; an abandoned transaction has
// replayed its undo log and released its abstract locks, and the context's
// error is returned. The descriptor returns to its pool even when fn (or an
// armed failpoint) panics — the rollback path has already restored the
// structure by then.
func AtomicCtx(ctx context.Context, stats *abort.Stats, ctr *spin.Counters, fn func(*Tx)) error {
	r := txPool.Get().(*boostRunner)
	r.tx.ctr = ctr
	r.fn = fn
	defer func() {
		r.tx.ctr = nil
		r.fn = nil
		txPool.Put(r)
	}()
	return r.h.Run(ctx, stats, r)
}

// OnAbort registers an inverse operation to replay if the transaction
// aborts. Inverses run in reverse registration order. The boosted
// structures in this package record their inverses through the
// allocation-free onUndo instead; OnAbort remains for callers with
// arbitrary rollback actions.
func (tx *Tx) OnAbort(inverse func()) {
	tx.undo = append(tx.undo, undoEntry{fn: inverse})
}

// onUndo registers a typed inverse without allocating.
func (tx *Tx) onUndo(target inverser, key int64, code int8) {
	tx.undo = append(tx.undo, undoEntry{target: target, key: key, code: code})
}

// AcquireRead takes (or confirms) a shared hold on l, aborting on timeout.
func (tx *Tx) AcquireRead(l *RWLock) {
	if tx.holds(l) {
		return // read or write hold both admit reading
	}
	if len(tx.held) > 0 {
		fpLockPartial.Hit()
	}
	tx.spinAcquire(l, (*RWLock).tryRead)
	tx.held = append(tx.held, heldLock{lock: l, mode: readHeld, key: tx.lockKey})
}

// AcquireWrite takes (or upgrades to) an exclusive hold on l, aborting on
// timeout. The waiting-writer gate is raised for the duration of the spin
// so incoming readers stand aside.
func (tx *Tx) AcquireWrite(l *RWLock) {
	for i := range tx.held {
		h := &tx.held[i]
		if h.lock != l {
			continue
		}
		if h.mode != readHeld {
			return // already exclusive
		}
		tx.spinAcquireWrite(l, (*RWLock).tryUpgrade)
		h.mode = upgradedHeld
		return
	}
	if len(tx.held) > 0 {
		fpLockPartial.Hit()
	}
	tx.spinAcquireWrite(l, (*RWLock).tryWrite)
	tx.held = append(tx.held, heldLock{lock: l, mode: writeHeld, key: tx.lockKey})
}

// spinAcquireWrite raises the waiting-writer gate around the spin; the
// deferred decrement also runs when the spin aborts the transaction.
func (tx *Tx) spinAcquireWrite(l *RWLock, try func(*RWLock) bool) {
	l.waiting.Add(1)
	defer l.waiting.Add(-1)
	tx.spinAcquire(l, try)
}

// spinAcquire retries try with backoff up to the contention-manager
// policy's lock-attempt bound (timeout-based deadlock avoidance, as in the
// original boosting implementation), then aborts with the timeout reason —
// its own telemetry line, distinct from locks found busy at commit.
func (tx *Tx) spinAcquire(l *RWLock, try func(*RWLock) bool) {
	attempts := core.Manager().Policy().LockAttempts()
	var b spin.Backoff
	for i := 0; i < attempts; i++ {
		if try(l) {
			tx.tr.Lock(tx.lockKey)
			return
		}
		tx.ctr.IncCAS()
		b.Wait()
	}
	tx.tr.LockBusy(tx.lockKey)
	abort.Retry(abort.Timeout)
}

func (tx *Tx) holds(l *RWLock) bool {
	for i := range tx.held {
		if tx.held[i].lock == l {
			return true
		}
	}
	return false
}

// commit releases all abstract locks; eager writes are already in place.
func (tx *Tx) commit() {
	fpCommitPre.Hit()
	tx.releaseAll()
	clearUndo(tx.undo)
	tx.undo = tx.undo[:0]
}

// rollback replays the undo log in reverse and releases all locks.
func (tx *Tx) rollback() {
	for i := len(tx.undo) - 1; i >= 0; i-- {
		tx.undo[i].run()
	}
	clearUndo(tx.undo)
	tx.undo = tx.undo[:0]
	tx.releaseAll()
}

// clearUndo drops references held by a drained undo log so recycled
// descriptors do not pin dead structures or closures.
func clearUndo(u []undoEntry) {
	for i := range u {
		u[i] = undoEntry{}
	}
}

// releaseHook, when non-nil, observes every lock release in order. It is a
// test seam: the lock-timeout test uses it to prove partially acquired lock
// sets are released in reverse acquisition order.
var releaseHook func(*RWLock, lockMode)

// releaseAll releases every held abstract lock in reverse acquisition
// order. Reverse order matters for partial lock sets: a transaction that
// timed out acquiring lock N must give up N-1..0 in the opposite order it
// took them, so a competing transaction spinning on an early lock never
// sees this one reacquire-after-release.
func (tx *Tx) releaseAll() {
	for i := len(tx.held) - 1; i >= 0; i-- {
		h := tx.held[i]
		if releaseHook != nil {
			releaseHook(h.lock, h.mode)
		}
		switch h.mode {
		case readHeld:
			h.lock.releaseRead()
		default:
			h.lock.releaseWrite()
		}
		tx.tr.Unlock(h.key)
	}
	tx.held = tx.held[:0]
}
