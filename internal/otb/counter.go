package otb

import (
	"sync/atomic"

	"repro/internal/spin"
)

// commitCounter is a list's commit counter, the NOrec sequence lock of one
// boosted list (ListSet, and the skip list behind SkipSet, Map and SkipPQ).
// A commit with writes in the list adds commitStart before it takes its
// first lock (PreCommit, which every structure of the transaction runs
// before any publishes) and subtracts 1 after its last store there, so the
// high half counts commits begun and the low half those still locking,
// validating or publishing. Two equal readings mean no commit began or ended
// in between; a reading is quiescent when its low half is 0.
type commitCounter struct {
	_ spin.Pad // keeps n off the list head's line, which every traversal reads
	n atomic.Uint64
	_ [spin.CacheLineSize - 8]byte
}

const (
	commitStart = 1<<32 | 1 // one more commit begun, one more in flight
	inFlight    = 1<<32 - 1 // mask of the low half
	// unknownSince is counterView.since when no quiescent reading is known
	// to cover the read set. It is not quiescent, so it never passes as one.
	unknownSince = 1
)

// counterView is one transaction's view of one list's commit counter.
type counterView struct {
	// since is a quiescent reading of the counter at which every recorded
	// read entry is known valid, or unknownSince.
	since     uint64
	announced bool // the commit has moved the counter; settle undoes the low half
	// checks counts the entries validation has re-checked in this
	// transaction: the work the counter saves.
	checks int
}

func (v *counterView) reset() { *v = counterView{since: unknownSince} }

// load is an op's reading before its traversal.
func (c *commitCounter) load() uint64 { return c.n.Load() }

// traversed brings since over an op's traversal that began at reading
// start, before the op records its entries. With no entries yet, since
// becomes start: an unmoved counter then shows that the traversal saw one
// unchanged state. With entries, since stands only if start equals it, when
// nothing committed between the entries' last validation and the traversal.
func (v *counterView) traversed(start uint64, hadReads bool) {
	switch {
	case !hadReads:
		v.since = start
	case start != v.since:
		v.since = unknownSince
	}
}

// revalidate is ds's ValidateWithLocks for post-validation and a write-free
// commit. It skips the check when the counter still reads since: then no
// commit has locked or published anything in the list since every entry,
// the newest op's included, was known valid, and a full validation could
// only pass.
func (c *commitCounter) revalidate(tx *Tx, ds Datastructure, v *counterView) bool {
	now := c.n.Load()
	quiescent := now&inFlight == 0
	if quiescent && now == v.since {
		return true
	}
	if !ds.ValidateWithLocks(tx) {
		return false
	}
	v.since = unknownSince
	if quiescent {
		v.since = now
	}
	return true
}

// announce moves the counter for a commit with writes in the list, once,
// before it takes its first lock; the low half then shows the commit in
// flight. Announcing before validation, not just before publication, is
// what makes a skip sound: a commit that has validated holds locks that
// only a full validation's lock samples would see, and it may already be
// ordered before a later commit that a skipping reader has seen.
func (c *commitCounter) announce(v *counterView) {
	if !v.announced {
		c.n.Add(commitStart)
		v.announced = true
	}
}

// settle takes an announced commit out of the counter's in-flight half:
// after its last store, or when it aborts.
func (c *commitCounter) settle(v *counterView) {
	if v.announced {
		c.n.Add(^uint64(0))
		v.announced = false
	}
}
