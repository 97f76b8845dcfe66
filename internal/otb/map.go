package otb

import (
	"repro/internal/abort"
	"repro/internal/conc"
	"repro/internal/mem"
)

// Map is an optimistically boosted ordered map — one of the data structures
// the paper's Chapter 7 proposes as future work ("more OTB data structures,
// such as maps"). It is the OTB skip list of SkipSet with the node's value
// slot in use; traversal, semantic entries, validation and commit are the
// shared skipList's. What is specific to the map:
//
//   - Get records a value-based semantic read (key present with this value,
//     or key absent between pred and curr);
//   - Put of an absent key defers an insert; Put of a present key defers a
//     value update, which only locks the node itself at commit;
//   - local write entries are read through by later operations in the same
//     transaction, and a Put/Delete pair on a fresh key eliminates.
type Map struct{ skipList }

// NewMap creates an empty map. Keys exclude the int64 sentinels.
func NewMap() *Map {
	m := &Map{}
	m.init()
	return m
}

// Get returns the value stored for key within tx.
func (m *Map) Get(tx *Tx, key int64) (uint64, bool) {
	st := m.begin(tx, key)
	if i := st.findWrite(key); i >= 0 {
		w := &st.writes[i]
		if w.kind == skipDelete {
			return 0, false
		}
		return w.val, true
	}
	var p conc.Path
	curr, val := m.locate(tx, st, key, &p)
	if curr == nil {
		st.readAbsent(&p)
	} else {
		m.readPresent(st, curr, val, &p)
	}
	tx.PostValidate()
	return val, curr != nil
}

// ContainsKey reports within tx whether key is mapped.
func (m *Map) ContainsKey(tx *Tx, key int64) bool {
	_, ok := m.Get(tx, key)
	return ok
}

// Put maps key to val within tx, returning true if the key was absent
// (inserted) and false if an existing mapping was updated.
func (m *Map) Put(tx *Tx, key int64, val uint64) bool {
	st := m.begin(tx, key)
	if i := st.findWrite(key); i >= 0 {
		w := &st.writes[i]
		if w.kind == skipDelete {
			// Delete then Put on a live node: turn into an update.
			st.writes[i] = skipWrite{kind: skipUpdate, key: key, val: val, victim: w.victim}
			return true
		}
		w.val = val
		return false
	}
	var p conc.Path
	curr, old := m.locate(tx, st, key, &p)
	if curr == nil {
		st.insert(val, &p)
	} else {
		m.readPresent(st, curr, old, &p)
		st.writes = append(st.writes, skipWrite{kind: skipUpdate, key: key, val: val, victim: curr})
	}
	tx.PostValidate()
	return curr == nil
}

// Delete unmaps key within tx, returning false if absent.
func (m *Map) Delete(tx *Tx, key int64) bool {
	st := m.begin(tx, key)
	var p conc.Path
	if i := st.findWrite(key); i >= 0 {
		w := st.writes[i]
		switch w.kind {
		case skipDelete:
			return false
		case skipInsert:
			st.deleteWrite(i) // eliminate the pending insert
			return true
		default:
			// Pending update of a live node: locate it again and turn the
			// entry into a delete with fresh, commit-validated preds. A
			// traversal that no longer finds the node read it removed, and
			// the entry the update rests on can only fail.
			if curr, _ := m.locate(tx, st, key, &p); curr != w.victim {
				tx.tr.NoteKey(TraceKey(key))
				abort.Retry(abort.Conflict)
			}
			st.writes[i] = st.remove(w.victim, &p)
			tx.PostValidate()
			return true
		}
	}
	curr, _ := m.locate(tx, st, key, &p)
	if curr == nil {
		st.readAbsent(&p)
	} else {
		st.writes = append(st.writes, st.remove(curr, &p))
	}
	tx.PostValidate()
	return curr != nil
}

// Snapshot returns the live key/value pairs (tests and snapshots; not
// linearizable).
func (m *Map) Snapshot() map[int64]uint64 {
	out := make(map[int64]uint64)
	m.walk(func(n *mem.Tower) bool { out[n.Key] = n.Val.Load(); return true })
	return out
}
