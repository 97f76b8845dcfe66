package otb

import (
	"slices"

	"repro/internal/abort"
	"repro/internal/mem"
	"repro/internal/spin"
)

// LockSet is one transaction's semantic locks on one structure, and the one
// implementation of the protocol every OTB structure runs over them:
// Algorithm 2's three-phase validation and the two-phase-locked commit's
// lock, release and abort steps. ListSet, the skip list and mvotb's buckets
// embed it in their per-transaction state and keep only what differs: which
// words guard a read entry (Guard), the semantic check, which words a write
// locks (Target) and publication.
//
// Locks are taken in word address order (mem.WordOrder), a total order over
// every live word. TryLock-or-abort never waits, so any fixed order is
// deadlock-free; this one needs no key from the structure and keeps the
// held list sorted, which makes ownership a binary search.
type LockSet struct {
	// held are the locks this transaction holds: in address order after
	// Lock, then the words of the nodes OnCommit creates (LockNew).
	held    []lockRef
	targets []lockRef // scratch: Target's words, then Lock's distinct ones
	samples []sample  // scratch: Guard's words, then validation's versions
}

// lockRef is a lock word and the trace key its events carry.
type lockRef struct {
	w   *mem.Word
	key uint64
}

// sample is a guarded word and the version validation's first phase read.
type sample struct {
	lockRef
	v uint32
}

func byWord(a, b lockRef) int { return mem.WordOrder(a.w, b.w) }

// Reset empties the set for a new transaction.
func (ls *LockSet) Reset() {
	ls.held = ls.held[:0]
	ls.targets = ls.targets[:0]
	ls.samples = ls.samples[:0]
}

// Guard adds w, a word whose lock guards a read entry, to the words the next
// Validate samples; key names it in trace events.
func (ls *LockSet) Guard(w *mem.Word, key uint64) {
	ls.samples = append(ls.samples, sample{lockRef: lockRef{w, key}})
}

// Validate is Algorithm 2 over the guarded words: the ValidateWithLocks of
// ds, whose ValidateWithoutLocks is the semantic check. Phase 1 samples
// every word, failing on one that another transaction holds (tx.LockSeen
// names the abort LockBusy); phase 2 is the semantic check; phase 3 confirms
// every sample unchanged, which makes the whole read set validate at one
// instant. It consumes the guarded words.
func (ls *LockSet) Validate(tx *Tx, ds Datastructure) bool {
	ok := ls.sample(tx) && ds.ValidateWithoutLocks(tx) && ls.confirm(tx)
	ls.samples = ls.samples[:0]
	return ok
}

// sample is validation's first phase: it reads every guarded word and fails
// on one that is locked, unless this transaction holds it. A held word keeps
// its locked value until the commit publishes, so its sample confirms.
func (ls *LockSet) sample(tx *Tx) bool {
	for i := range ls.samples {
		s := &ls.samples[i]
		s.v = s.w.Load()
		if mem.IsLocked(s.v) && !ls.owns(s.w) {
			tx.LockSeen(s.key)
			return false
		}
	}
	return true
}

// confirm is validation's third phase: every sampled version unchanged.
func (ls *LockSet) confirm(tx *Tx) bool {
	for _, s := range ls.samples {
		if s.w.Load() != s.v {
			tx.tr.ValidateFail(s.key)
			return false
		}
	}
	return true
}

// owns reports whether this transaction holds w: a binary search of the
// address-ordered held list. Only commit validation holds locks, and it runs
// before OnCommit adds the words of the nodes it creates. It is written out:
// with slices.BinarySearchFunc here, and Lock sorting a single target, a
// one-op mvotb transaction took about a tenth longer.
func (ls *LockSet) owns(w *mem.Word) bool {
	for lo, hi := 0, len(ls.held); lo < hi; {
		m := int(uint(lo+hi) >> 1)
		switch c := mem.WordOrder(ls.held[m].w, w); {
		case c == 0:
			return true
		case c < 0:
			lo = m + 1
		default:
			hi = m
		}
	}
	return false
}

// Target adds w, a word a write must hold at commit, to the words the next
// Lock takes. Repeats are allowed; Lock takes each word once.
func (ls *LockSet) Target(w *mem.Word, key uint64) {
	ls.targets = append(ls.targets, lockRef{w, key})
}

// Lock takes the targeted words, each once, in address order. A busy word
// counts a CAS failure and aborts the transaction (LockBusy), or, if wait
// is set, is waited out: a context that has already excluded every other
// updater (OTB-NOrec) can meet only a short-lived holder.
func (ls *LockSet) Lock(tx *Tx, wait bool) {
	if len(ls.targets) > 1 { // a single-write commit, the common one, skips both calls
		slices.SortFunc(ls.targets, byWord)
		ls.targets = slices.CompactFunc(ls.targets, func(a, b lockRef) bool { return a.w == b.w })
	}
	for _, r := range ls.targets {
		var b spin.Backoff
		for !r.w.TryLock() {
			tx.Counters().IncCAS()
			if !wait {
				tx.tr.LockBusy(r.key)
				abort.Retry(abort.LockBusy)
			}
			b.Wait()
		}
		tx.tr.Lock(r.key)
		ls.held = append(ls.held, r)
	}
	ls.targets = ls.targets[:0]
}

// LockNew locks the word of a node the transaction is about to link, which
// no other transaction can reach yet, and holds it with the rest until the
// commit finishes.
func (ls *LockSet) LockNew(w *mem.Word, key uint64) {
	w.TryLock()
	ls.held = append(ls.held, lockRef{w, key})
}

// Holding reports whether the transaction holds any lock of the set.
func (ls *LockSet) Holding() bool { return len(ls.held) > 0 }

// Unlock releases every held lock after a commit has published, advancing
// each version so that concurrent validations observe the commit.
func (ls *LockSet) Unlock(tx *Tx) {
	for _, r := range ls.held {
		r.w.Unlock()
		tx.tr.Unlock(r.key)
	}
	ls.held = ls.held[:0]
}

// UnlockUnchanged releases every held lock of an aborting transaction with
// its version as it was: nothing was published (OnCommit cannot fail), so
// concurrent readers must not be spuriously invalidated.
func (ls *LockSet) UnlockUnchanged() {
	for _, r := range ls.held {
		r.w.UnlockUnchanged()
	}
	ls.held = ls.held[:0]
}
