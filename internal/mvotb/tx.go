package mvotb

import (
	"cmp"
	"slices"

	"repro/internal/abort"
	"repro/internal/otb"
	"repro/internal/spin"
	"repro/internal/trace"
)

// readEntry is one semantic observation: "key currently resolves to version
// ver in bucket b" (ver == nil or a tombstone means absent). Commit and
// every post-validation re-check it.
type readEntry struct {
	b   *bucket
	key int64
	ver *version
}

// check re-evaluates the observation. Identity of the head version is the
// conflict test; two distinct absences (nil node, a different tombstone —
// e.g. after a sweep unlinked the one we saw) are semantically equal, so
// they pass rather than spuriously aborting.
func (e *readEntry) check() bool {
	n := e.b.find(e.key)
	var cur *version
	if n != nil {
		cur = n.head.Load()
	}
	if cur == e.ver {
		return true
	}
	curAbsent := cur == nil || !cur.present
	obsAbsent := e.ver == nil || !e.ver.present
	return curAbsent && obsAbsent
}

// writeEntry is one deferred semantic write: the state (present, val) key
// will have after commit. One entry per (table, key); later operations in
// the same transaction update it in place.
type writeEntry struct {
	t       *table
	b       *bucket
	key     int64
	present bool
	val     uint64
}

// txState is what one otb.Tx holds for a Runtime (the value tx.Attach
// returns): the semantic read and write sets over every table of the runtime
// — one attachment per runtime, not per table, so a transaction over a set
// and a map still draws a single commit timestamp — plus the lock scratch.
// Its methods are the runtime's otb.Datastructure hooks.
type txState struct {
	rt       *Runtime
	reads    []readEntry
	writes   []writeEntry
	toLock   []*bucket // scratch: deduplicated lock targets
	locked   []*bucket // buckets locked by this transaction
	lockSnap []uint64  // scratch: sampled lock versions during validation
	hint     uint32    // clock shard hint, assigned once per pooled descriptor
}

var _ otb.Datastructure = (*txState)(nil)

// state attaches the runtime to tx (idempotent) and returns its state.
func (rt *Runtime) state(tx *otb.Tx) *txState {
	return tx.Attach(&rt.slot).(*txState)
}

// Reset recycles the state for a new transaction (otb.Tx calls it on
// re-attach).
func (st *txState) Reset() {
	st.reads = st.reads[:0]
	st.writes = st.writes[:0]
	st.toLock = st.toLock[:0]
	st.locked = st.locked[:0]
	st.lockSnap = st.lockSnap[:0]
}

func (st *txState) findWrite(t *table, key int64) *writeEntry {
	for i := range st.writes {
		if st.writes[i].t == t && st.writes[i].key == key {
			return &st.writes[i]
		}
	}
	return nil
}

func (st *txState) addWrite(t *table, key int64, present bool, val uint64) {
	st.writes = append(st.writes, writeEntry{t: t, b: t.bucket(key), key: key, present: present, val: val})
}

// ownedVersion marks a lock-snapshot slot for a bucket this transaction
// itself holds (valid by construction).
const ownedVersion = ^uint64(0)

// ValidateWithLocks implements otb.Datastructure: the whole read set in the
// three-phase style of OTB's Algorithm 2 — sample the involved bucket locks
// (failing on foreign holders, which names the abort LockBusy), re-check the
// semantic observations, then confirm the sampled versions unchanged (a
// moved version is a Conflict), which makes the read set validate
// atomically.
func (st *txState) ValidateWithLocks(tx *otb.Tx) bool {
	tr := tx.Trace()
	st.lockSnap = st.lockSnap[:0]
	for i := range st.reads {
		b := st.reads[i].b
		if slices.Contains(st.locked, b) {
			st.lockSnap = append(st.lockSnap, ownedVersion)
			continue
		}
		v := b.lock.Load()
		if spin.IsLocked(v) {
			tx.LockSeen(otb.TraceKey(st.reads[i].key))
			return false
		}
		st.lockSnap = append(st.lockSnap, v)
	}
	if !st.checkReads(tr) {
		return false
	}
	for i := range st.reads {
		v := st.lockSnap[i]
		if v == ownedVersion {
			continue
		}
		if st.reads[i].b.lock.Load() != v {
			tr.ValidateFail(otb.TraceKey(st.reads[i].key))
			return false
		}
	}
	return true
}

// ValidateWithoutLocks implements otb.Datastructure: the semantic conditions
// only, for contexts that exclude writers by other means (OTB-NOrec's global
// lock).
func (st *txState) ValidateWithoutLocks(tx *otb.Tx) bool {
	return st.checkReads(tx.Trace())
}

// checkReads re-evaluates every semantic observation.
func (st *txState) checkReads(tr *trace.Local) bool {
	for i := range st.reads {
		if !st.reads[i].check() {
			tr.ValidateFail(otb.TraceKey(st.reads[i].key))
			return false
		}
	}
	return true
}

// Dirty implements otb.Datastructure.
func (st *txState) Dirty(tx *otb.Tx) bool { return len(st.writes) > 0 }

// lockWrites takes the bucket lock of every pending write in the global
// order (ascending allocation id). A busy lock aborts the transaction unless
// wait is set, in which case it is waited out.
func (st *txState) lockWrites(tr *trace.Local, wait bool) {
	st.toLock = st.toLock[:0]
	for i := range st.writes {
		if b := st.writes[i].b; !slices.Contains(st.toLock, b) {
			st.toLock = append(st.toLock, b)
		}
	}
	slices.SortFunc(st.toLock, func(a, b *bucket) int { return cmp.Compare(a.id, b.id) })
	for _, b := range st.toLock {
		var bo spin.Backoff
		for {
			if b.lock.TryLock(b.lock.Load()) {
				break
			}
			if !wait {
				tr.LockBusy(lockTraceKey(b))
				abort.Retry(abort.LockBusy)
			}
			bo.Wait()
		}
		tr.Lock(lockTraceKey(b))
		st.locked = append(st.locked, b)
	}
}

// PreCommit implements otb.Datastructure: lock the write set's buckets (of
// every table of the runtime) in global order. A transaction that only read
// takes no lock and is serialized by its commit-time validation alone.
func (st *txState) PreCommit(tx *otb.Tx) {
	if len(st.writes) == 0 {
		return
	}
	st.lockWrites(tx.Trace(), false)
	fpInstall.Hit()
}

// OnCommit implements otb.Datastructure: tick the clock to the commit
// timestamp and install one new version per write. otb.Tx.Commit runs it only
// after every attached structure's PreCommit and validation, so every bucket
// lock is held when the timestamp is drawn — the snapshot rule. A context
// that skips PreCommit (OTB-NOrec: its global lock already excludes other
// updaters) gets the locks here instead, because snapshot readers
// synchronize on the bucket locks alone; only the sweeper can hold one then,
// briefly, so the wait cannot fail.
func (st *txState) OnCommit(tx *otb.Tx) {
	if len(st.writes) == 0 {
		return
	}
	if len(st.locked) == 0 {
		st.lockWrites(tx.Trace(), true)
	}
	ts := st.rt.clock.Tick(st.hint)
	for i := range st.writes {
		st.writes[i].install(ts)
	}
}

// PostCommit implements otb.Datastructure: release the bucket locks, bumping
// their versions so concurrent validations observe the commit.
func (st *txState) PostCommit(tx *otb.Tx) {
	for _, b := range st.locked {
		b.lock.Unlock()
		tx.Trace().Unlock(lockTraceKey(b))
	}
	st.locked = st.locked[:0]
}

// OnAbort implements otb.Datastructure: release anything held with lock
// versions unchanged — nothing was published (install cannot fail), so
// concurrent readers are not spuriously invalidated.
func (st *txState) OnAbort(tx *otb.Tx) {
	for _, b := range st.locked {
		b.lock.UnlockUnchanged()
	}
	st.locked = st.locked[:0]
}

// install publishes one write as a new chain head at commit timestamp ts.
// The bucket lock is held: no other committer can race, and the reader
// protocol (wait out locked buckets when the snapshot could cover ts)
// guarantees visibility ordering. A delete of a key with no node installs
// nothing — validation proved the key absent, and absence needs no history.
func (w *writeEntry) install(ts uint64) {
	n := w.b.find(w.key)
	if n == nil {
		if !w.present {
			return
		}
		n = newKeyNode(w.key)
		v := newVersion(w.val, true, ts)
		n.head.Store(v)
		n.next.Store(w.b.head.Load())
		w.b.head.Store(n) // publish fully-initialized
		return
	}
	old := n.head.Load()
	v := newVersion(w.val, w.present, ts)
	v.next.Store(old)
	if old != nil {
		old.deleteTS.Store(ts)
	}
	n.head.Store(v)
}
