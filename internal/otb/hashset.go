package otb

import (
	"repro/internal/conc"
	"repro/internal/mem"
)

// HashSet is an optimistically boosted unordered set: a fixed array of
// bucket ListSets, each a full OTB structure. Because OTB transactions
// compose across structures, the hash set needs no mechanism of its own —
// an operation attaches only the buckets it touches, so transactions on
// different buckets share nothing and commit in parallel. This is the
// cheapest instance of Chapter 7's "more OTB data structures" direction,
// and the transactional analogue of a striped concurrent hash set. The
// buckets draw their nodes from one slab, so a set of many short buckets
// holds one chunk, not one per bucket.
type HashSet struct {
	buckets []*ListSet
	mask    uint64
}

// NewHashSet creates a set with n buckets (rounded up to a power of two).
func NewHashSet(n int) *HashSet {
	size := 1
	for size < n {
		size *= 2
	}
	s := &HashSet{buckets: make([]*ListSet, size), mask: uint64(size - 1)}
	slab := mem.NewSlab[conc.ListNode]()
	for i := range s.buckets {
		s.buckets[i] = newListSetIn(slab)
	}
	return s
}

// bucket returns the bucket list for key.
func (s *HashSet) bucket(key int64) *ListSet {
	h := uint64(key) * 0x9e3779b97f4a7c15
	return s.buckets[(h>>32)&s.mask]
}

// Add inserts key within tx, returning false if present.
func (s *HashSet) Add(tx *Tx, key int64) bool { return s.bucket(key).Add(tx, key) }

// Remove deletes key within tx, returning false if absent.
func (s *HashSet) Remove(tx *Tx, key int64) bool { return s.bucket(key).Remove(tx, key) }

// Contains reports within tx whether key is present.
func (s *HashSet) Contains(tx *Tx, key int64) bool { return s.bucket(key).Contains(tx, key) }

// Len counts elements across buckets (not linearizable; tests/reporting).
func (s *HashSet) Len() int {
	n := 0
	for _, b := range s.buckets {
		n += b.Len()
	}
	return n
}
