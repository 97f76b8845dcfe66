package mvotb

import (
	"repro/internal/otb"
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
// and a map still draws a single commit timestamp — and its bucket locks.
// Its methods are the runtime's otb.Datastructure hooks.
type txState struct {
	otb.LockSet // the buckets' words
	rt          *Runtime
	reads       []readEntry
	writes      []writeEntry
	hint        uint32 // clock shard hint, assigned once per pooled descriptor
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
	st.LockSet.Reset()
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

// ValidateWithLocks implements otb.Datastructure: OTB's Algorithm 2
// (otb.LockSet.Validate) over the bucket lock of every read. A foreign
// holder names the abort LockBusy, a moved version Conflict.
func (st *txState) ValidateWithLocks(tx *otb.Tx) bool {
	for i := range st.reads {
		st.Guard(&st.reads[i].b.lock, otb.TraceKey(st.reads[i].key))
	}
	return st.Validate(tx, st)
}

// ValidateWithoutLocks implements otb.Datastructure: the semantic
// observations alone, for contexts that exclude writers by other means
// (OTB-NOrec's global lock), and validation's second phase.
func (st *txState) ValidateWithoutLocks(tx *otb.Tx) bool {
	for i := range st.reads {
		if !st.reads[i].check() {
			tx.Trace().ValidateFail(otb.TraceKey(st.reads[i].key))
			return false
		}
	}
	return true
}

// Dirty implements otb.Datastructure.
func (st *txState) Dirty(tx *otb.Tx) bool { return len(st.writes) > 0 }

// lock takes the bucket lock of every pending write, of every table of the
// runtime, in the lock set's order.
func (st *txState) lock(tx *otb.Tx, wait bool) {
	for i := range st.writes {
		b := st.writes[i].b
		st.Target(&b.lock, lockTraceKey(b))
	}
	st.Lock(tx, wait)
}

// PreCommit implements otb.Datastructure: lock the write set's buckets; a
// busy one aborts. A transaction that only read takes no lock and is
// serialized by its commit-time validation alone.
func (st *txState) PreCommit(tx *otb.Tx) {
	if len(st.writes) == 0 {
		return
	}
	st.lock(tx, false)
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
	if !st.Holding() {
		st.lock(tx, true)
	}
	ts := st.rt.clock.Tick(st.hint)
	for i := range st.writes {
		st.writes[i].install(ts)
	}
}

// PostCommit implements otb.Datastructure: release the bucket locks,
// advancing their versions.
func (st *txState) PostCommit(tx *otb.Tx) { st.Unlock(tx) }

// OnAbort implements otb.Datastructure: release the bucket locks unchanged.
func (st *txState) OnAbort(tx *otb.Tx) { st.UnlockUnchanged() }

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
