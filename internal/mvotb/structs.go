package mvotb

import (
	"slices"

	"repro/internal/otb"
)

// Set is a multi-version boosted set: updater operations follow OTB
// semantics (read-your-writes, deferred publication), snapshot operations
// resolve against the reader's pinned timestamp.
type Set struct{ t *table }

// NewSet creates a set backed by at least nbuckets hash buckets (rounded up
// to a power of two).
func (rt *Runtime) NewSet(nbuckets int) *Set {
	return &Set{t: rt.newTable(nbuckets)}
}

// Add inserts key within tx, returning false if already present.
func (s *Set) Add(tx *otb.Tx, key int64) bool {
	st := s.t.rt.state(tx)
	if w := st.findWrite(s.t, key); w != nil {
		if w.present {
			return false
		}
		w.present, w.val = true, 0
		return true
	}
	if _, present := s.t.read(tx, st, key); present {
		return false
	}
	st.addWrite(s.t, key, true, 0)
	return true
}

// Remove deletes key within tx, returning false if absent.
func (s *Set) Remove(tx *otb.Tx, key int64) bool {
	st := s.t.rt.state(tx)
	if w := st.findWrite(s.t, key); w != nil {
		if !w.present {
			return false
		}
		w.present = false
		return true
	}
	if _, present := s.t.read(tx, st, key); !present {
		return false
	}
	st.addWrite(s.t, key, false, 0)
	return true
}

// Contains reports within tx whether key is present.
func (s *Set) Contains(tx *otb.Tx, key int64) bool {
	st := s.t.rt.state(tx)
	if w := st.findWrite(s.t, key); w != nil {
		return w.present
	}
	_, present := s.t.read(tx, st, key)
	return present
}

// SnapContains reports whether key is present at the reader's snapshot.
func (s *Set) SnapContains(x *STx, key int64) bool {
	_, ok := s.t.snapRead(x, key)
	return ok
}

// Keys returns the currently-present keys in ascending order (not
// linearizable; reporting and store dumps, whose callers are quiescent).
func (s *Set) Keys() []int64 {
	var keys []int64
	s.t.walk(func(k int64, _ uint64) { keys = append(keys, k) })
	slices.Sort(keys)
	return keys
}

// Len counts the currently-present keys (not linearizable).
func (s *Set) Len() int { return len(s.Keys()) }

// Map is a multi-version boosted map over the same version-chained core.
type Map struct{ t *table }

// NewMap creates a map backed by at least nbuckets hash buckets.
func (rt *Runtime) NewMap(nbuckets int) *Map {
	return &Map{t: rt.newTable(nbuckets)}
}

// Put inserts or updates key within tx, returning true if it inserted
// (key was absent).
func (m *Map) Put(tx *otb.Tx, key int64, val uint64) bool {
	st := m.t.rt.state(tx)
	if w := st.findWrite(m.t, key); w != nil {
		inserted := !w.present
		w.present, w.val = true, val
		return inserted
	}
	_, present := m.t.read(tx, st, key)
	st.addWrite(m.t, key, true, val)
	return !present
}

// Get returns the value bound to key within tx.
func (m *Map) Get(tx *otb.Tx, key int64) (uint64, bool) {
	st := m.t.rt.state(tx)
	if w := st.findWrite(m.t, key); w != nil {
		if !w.present {
			return 0, false
		}
		return w.val, true
	}
	return m.t.read(tx, st, key)
}

// Delete removes key within tx, returning false if absent.
func (m *Map) Delete(tx *otb.Tx, key int64) bool {
	st := m.t.rt.state(tx)
	if w := st.findWrite(m.t, key); w != nil {
		if !w.present {
			return false
		}
		w.present, w.val = false, 0
		return true
	}
	if _, present := m.t.read(tx, st, key); !present {
		return false
	}
	st.addWrite(m.t, key, false, 0)
	return true
}

// ContainsKey reports within tx whether key is bound.
func (m *Map) ContainsKey(tx *otb.Tx, key int64) bool {
	_, ok := m.Get(tx, key)
	return ok
}

// Snapshot returns the current bindings (not linearizable; see Set.Keys).
func (m *Map) Snapshot() map[int64]uint64 {
	out := make(map[int64]uint64)
	m.t.walk(func(k int64, v uint64) { out[k] = v })
	return out
}

// SnapGet returns the value bound to key at the reader's snapshot.
func (m *Map) SnapGet(x *STx, key int64) (uint64, bool) {
	return m.t.snapRead(x, key)
}

// SnapContains reports whether key is bound at the reader's snapshot.
func (m *Map) SnapContains(x *STx, key int64) bool {
	_, ok := m.t.snapRead(x, key)
	return ok
}
