package mvotb

import (
	"sync"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/mem/epoch"
	"repro/internal/otb"
	"repro/internal/spin"
)

// version is one entry of a per-key version chain, newest first. A key's
// state at snapshot S is the first version with createTS <= S: present=true
// carries the value, present=false is a tombstone (the key was removed at
// createTS). createTS, val and present are immutable after install;
// deleteTS is set exactly once, to the commit timestamp of the superseding
// version; next is rewritten only by the sweeper (truncation to nil).
type version struct {
	val      uint64
	present  bool
	createTS uint64
	deleteTS atomic.Uint64
	next     atomic.Pointer[version]
}

// versionPool recycles chain entries. Versions flow back in through epoch
// reclamation only (freeVersion is the Retire callback), so a pooled version
// is never reused while any pinned reader could still walk it.
var versionPool = sync.Pool{New: func() any { return &version{} }}

func newVersion(val uint64, present bool, ts uint64) *version {
	v := versionPool.Get().(*version)
	v.val, v.present, v.createTS = val, present, ts
	v.deleteTS.Store(0)
	v.next.Store(nil)
	return v
}

// freeVersion is the epoch.Retire callback returning a reclaimed version to
// the pool. Top-level so Retire call sites do not allocate a closure.
func freeVersion(v any) { versionPool.Put(v) }

// keyNode anchors one key's version chain inside a bucket. Nodes are
// unlinked only by the sweeper, and only once their whole history collapses
// to a tombstone older than every active snapshot.
type keyNode struct {
	key  int64
	next atomic.Pointer[keyNode]
	head atomic.Pointer[version]
}

var keyNodePool = sync.Pool{New: func() any { return &keyNode{} }}

func newKeyNode(key int64) *keyNode {
	n := keyNodePool.Get().(*keyNode)
	n.key = key
	n.next.Store(nil)
	n.head.Store(nil)
	return n
}

func freeKeyNode(v any) { keyNodePool.Put(v) }

// bucketSeq hands out bucket ids, which name bucket locks in trace events.
var bucketSeq atomic.Uint64

// bucket is one hash bucket: a versioned lock covering key insertion and
// version installs for every key that hashes here (the mem.Word every OTB
// semantic lock is), and the key-chain head. Padded so neighbouring bucket
// locks never share a cache line.
type bucket struct {
	id   uint64
	lock mem.Word
	head atomic.Pointer[keyNode]
	_    [spin.CacheLineSize - 24]byte
}

// find returns the bucket's node for key, or nil.
func (b *bucket) find(key int64) *keyNode {
	for n := b.head.Load(); n != nil; n = n.next.Load() {
		if n.key == key {
			return n
		}
	}
	return nil
}

// table is the shared multi-version core behind Set and Map: a fixed
// power-of-two bucket array of version-chained keys.
type table struct {
	rt      *Runtime
	buckets []bucket
	mask    uint64
}

func (rt *Runtime) newTable(nbuckets int) *table {
	n := 8
	for n < nbuckets {
		n <<= 1
	}
	t := &table{rt: rt, buckets: make([]bucket, n), mask: uint64(n - 1)}
	for i := range t.buckets {
		t.buckets[i].id = bucketSeq.Add(1)
	}
	rt.tableMu.Lock()
	rt.tables = append(rt.tables, t)
	rt.tableMu.Unlock()
	return t
}

// hashKey mixes the key (Fibonacci hashing) so sequential benchmark keys
// spread across buckets.
func hashKey(k int64) uint64 {
	h := uint64(k) * 0x9E3779B97F4A7C15
	return h ^ (h >> 29)
}

func (t *table) bucket(key int64) *bucket {
	return &t.buckets[hashKey(key)&t.mask]
}

// walk calls fn for every key whose newest version is present, with its
// value. Epoch-pinned like every traversal; not linearizable.
func (t *table) walk(fn func(key int64, val uint64)) {
	g := epoch.Default.Enter()
	defer g.Exit()
	for i := range t.buckets {
		for kn := t.buckets[i].head.Load(); kn != nil; kn = kn.next.Load() {
			if h := kn.head.Load(); h != nil && h.present {
				fn(kn.key, h.val)
			}
		}
	}
}

// mutBreakSnapshot is a test-only mutation switch: when set, snapshot reads
// return the newest version regardless of the reader's timestamp — the bug
// class (a reader observing a version newer than its snapshot) the opacity
// checker must catch. Set only by mutation tests, before any concurrency.
var mutBreakSnapshot bool

// visible walks the chain for the newest version with createTS <= snap.
func visible(head *version, snap uint64) *version {
	v := head
	if mutBreakSnapshot {
		return v
	}
	for v != nil && v.createTS > snap {
		v = v.next.Load()
	}
	return v
}

// snapRead resolves key at the transaction's snapshot: no locks, no read
// set, no validation. A locked bucket means a commit (or sweep) is in its
// short critical section; waiting it out is what guarantees a reader whose
// snapshot already covers that commit finds the installed versions (see the
// package comment's snapshot rule). The sweeper cannot reclaim anything the
// walk can reach: the reader published its snapshot before loading it and
// its epoch pin covers the traversal.
func (t *table) snapRead(x *STx, key int64) (uint64, bool) {
	x.h.Trace().Op(otb.TraceKey(key))
	b := t.bucket(key)
	var bo spin.Backoff
	for mem.IsLocked(b.lock.Load()) {
		bo.Wait()
	}
	n := b.find(key)
	if n == nil {
		return 0, false
	}
	v := visible(n.head.Load(), x.snap)
	if v == nil || !v.present {
		return 0, false
	}
	return v.val, true
}

// read resolves key at "now" for an updater: it observes the current head
// version, post-validates the whole transaction (opacity — every attached
// structure, under whatever strategy the driving context installed), and
// records a semantic read entry so commit re-validates the observation.
func (t *table) read(tx *otb.Tx, st *txState, key int64) (uint64, bool) {
	tx.Trace().Op(otb.TraceKey(key))
	b := t.bucket(key)
	n := b.find(key)
	var v *version
	if n != nil {
		v = n.head.Load()
	}
	st.reads = append(st.reads, readEntry{b: b, key: key, ver: v})
	tx.PostValidate()
	if v == nil || !v.present {
		return 0, false
	}
	return v.val, true
}

// scanBucket measures the longest version chain and reports whether the
// bucket holds garbage relative to minSnap: versions shadowed below the
// first one visible at minSnap, or a node whose whole history is a
// tombstone no reachable snapshot can distinguish from absence.
func scanBucket(b *bucket, minSnap uint64) (longest int, dirty bool) {
	for n := b.head.Load(); n != nil; n = n.next.Load() {
		l := 0
		seenCut := false
		for v := n.head.Load(); v != nil; v = v.next.Load() {
			l++
			if seenCut {
				dirty = true
			} else if v.createTS <= minSnap {
				seenCut = true
			}
		}
		if l > longest {
			longest = l
		}
		if h := n.head.Load(); h != nil && !h.present && h.createTS <= minSnap && h.next.Load() == nil {
			dirty = true
		}
	}
	return longest, dirty
}

// sweepBucket reclaims the bucket's garbage. Caller holds the bucket lock,
// so no committer can install concurrently; readers may still be walking,
// which is why truncated versions and unlinked nodes are retired through
// the epoch guard rather than pooled directly.
func sweepBucket(b *bucket, minSnap uint64, g *epoch.Guard) {
	var pred *keyNode
	n := b.head.Load()
	for n != nil {
		next := n.next.Load()
		// Truncate everything below the newest version still visible to the
		// oldest active snapshot: every snapshot S >= minSnap resolves to
		// that version or newer, so the suffix is unreachable going forward.
		for v := n.head.Load(); v != nil; v = v.next.Load() {
			if v.createTS <= minSnap {
				old := v.next.Load()
				if old != nil {
					v.next.Store(nil)
					for old != nil {
						nx := old.next.Load()
						g.Retire(old, freeVersion)
						old = nx
					}
				}
				break
			}
		}
		// A history reduced to one tombstone older than minSnap is
		// indistinguishable from absence at every reachable snapshot:
		// unlink the node itself.
		if h := n.head.Load(); h != nil && !h.present && h.createTS <= minSnap && h.next.Load() == nil {
			if pred == nil {
				b.head.Store(next)
			} else {
				pred.next.Store(next)
			}
			g.Retire(h, freeVersion)
			g.Retire(n, freeKeyNode)
			n = next
			continue
		}
		pred = n
		n = next
	}
}

// lockTraceKey attributes bucket-lock events in the global-lock namespace.
func lockTraceKey(b *bucket) uint64 { return 1<<60 | b.id }
