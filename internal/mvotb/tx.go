package mvotb

import (
	"repro/internal/abort"
	"repro/internal/mem/epoch"
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

// Tx is an updater transaction: the normal OTB optimistic path (unmonitored
// reads of current heads, post-validation after every operation, two-phase
// locked commit) plus an atomic multi-version install at its commit
// timestamp.
type Tx struct {
	rt       *Runtime
	reads    []readEntry
	writes   []writeEntry
	toLock   []*bucket // scratch: deduplicated lock targets
	locked   []*bucket // buckets locked by this transaction
	lockSnap []uint64  // scratch: sampled lock versions during validation
	eg       *epoch.Guard
	tr       *trace.Local
	hint     uint32 // clock shard hint
}

// Trace returns the transaction's flight-recorder handle (possibly nil; all
// its methods are nil-safe).
func (tx *Tx) Trace() *trace.Local { return tx.tr }

func (tx *Tx) reset() {
	tx.reads = tx.reads[:0]
	tx.writes = tx.writes[:0]
	tx.toLock = tx.toLock[:0]
	tx.locked = tx.locked[:0]
	tx.lockSnap = tx.lockSnap[:0]
}

func (tx *Tx) unpin() {
	if tx.eg != nil {
		tx.eg.Exit()
		tx.eg = nil
	}
}

func (tx *Tx) findWrite(t *table, key int64) *writeEntry {
	for i := range tx.writes {
		if tx.writes[i].t == t && tx.writes[i].key == key {
			return &tx.writes[i]
		}
	}
	return nil
}

func (tx *Tx) addWrite(t *table, key int64, present bool, val uint64) {
	tx.writes = append(tx.writes, writeEntry{t: t, b: t.bucket(key), key: key, present: present, val: val})
}

func (tx *Tx) ownsBucket(b *bucket) bool {
	for _, l := range tx.locked {
		if l == b {
			return true
		}
	}
	return false
}

// ownedVersion marks a lock-snapshot slot for a bucket this transaction
// itself holds (valid by construction).
const ownedVersion = ^uint64(0)

// validate checks the whole read set in the three-phase style of OTB's
// Algorithm 2: sample the involved bucket locks (failing on foreign
// holders), re-check the semantic observations, then confirm the sampled
// versions unchanged, which makes the read set validate atomically.
func (tx *Tx) validate() bool {
	tx.lockSnap = tx.lockSnap[:0]
	for i := range tx.reads {
		b := tx.reads[i].b
		if tx.ownsBucket(b) {
			tx.lockSnap = append(tx.lockSnap, ownedVersion)
			continue
		}
		v := b.lock.Sample()
		if spin.IsLocked(v) {
			tx.tr.ValidateFail(traceKey(tx.reads[i].key))
			return false
		}
		tx.lockSnap = append(tx.lockSnap, v)
	}
	for i := range tx.reads {
		if !tx.reads[i].check() {
			tx.tr.ValidateFail(traceKey(tx.reads[i].key))
			return false
		}
	}
	for i := range tx.reads {
		v := tx.lockSnap[i]
		if v == ownedVersion {
			continue
		}
		if tx.reads[i].b.lock.Sample() != v {
			tx.tr.ValidateFail(traceKey(tx.reads[i].key))
			return false
		}
	}
	return true
}

// postValidate runs after every operation (opacity), aborting on failure.
func (tx *Tx) postValidate() {
	if !tx.validate() {
		abort.Retry(abort.Conflict)
	}
	tx.tr.Validated()
}

// addToLock appends b to the lock-target scratch unless present.
func (tx *Tx) addToLock(b *bucket) {
	for _, m := range tx.toLock {
		if m == b {
			return
		}
	}
	tx.toLock = append(tx.toLock, b)
}

// sortBucketsByID insertion-sorts buckets ascending by allocation id (the
// global lock order), allocation-free on the commit path.
func sortBucketsByID(bs []*bucket) {
	for i := 1; i < len(bs); i++ {
		b := bs[i]
		j := i - 1
		for j >= 0 && bs[j].id > b.id {
			bs[j+1] = bs[j]
			j--
		}
		bs[j+1] = b
	}
}

// commit is the two-phase-locked commit with a multi-version install: lock
// the write set's buckets in global order, validate the read set under
// them, tick the clock to the commit timestamp, install one new version per
// write, release (bumping lock versions so concurrent validations observe
// the commit). Read-only updater transactions skip the locks and only
// validate, pinning their serialization point at commit.
func (tx *Tx) commit() {
	if len(tx.writes) == 0 {
		if !tx.validate() {
			abort.Retry(abort.Conflict)
		}
		tx.tr.Validated()
		return
	}
	tx.toLock = tx.toLock[:0]
	for i := range tx.writes {
		tx.addToLock(tx.writes[i].b)
	}
	sortBucketsByID(tx.toLock)
	for _, b := range tx.toLock {
		if _, ok := b.lock.TryLock(); !ok {
			tx.tr.LockBusy(lockTraceKey(b))
			abort.Retry(abort.LockBusy)
		}
		tx.tr.Lock(lockTraceKey(b))
		tx.locked = append(tx.locked, b)
	}
	if !tx.validate() {
		abort.Retry(abort.Conflict)
	}
	tx.tr.Validated()
	fpInstall.Hit()
	ts := tx.rt.clock.Tick(tx.hint)
	for i := range tx.writes {
		tx.writes[i].install(ts)
	}
	for _, b := range tx.locked {
		b.lock.Unlock()
		tx.tr.Unlock(lockTraceKey(b))
	}
	tx.locked = tx.locked[:0]
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

// rollback releases anything held by an aborting transaction with lock
// versions unchanged — nothing was published (install cannot fail), so
// concurrent readers are not spuriously invalidated.
func (tx *Tx) rollback() {
	for _, b := range tx.locked {
		b.lock.UnlockUnchanged()
	}
	tx.reset()
}
