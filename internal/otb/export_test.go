package otb

import "repro/internal/mem"

// lockSet lets HeldWords reach the LockSet that a structure's
// per-transaction state embeds, mvotb's included.
func (ls *LockSet) lockSet() *LockSet { return ls }

// HeldWords returns the words the lock sets of tx's attached structures
// hold, in each set's order.
func HeldWords(tx *Tx) []*mem.Word {
	var out []*mem.Word
	for _, ds := range tx.Attached() {
		if s, ok := ds.(interface{ lockSet() *LockSet }); ok {
			for _, r := range s.lockSet().held {
				out = append(out, r.w)
			}
		}
	}
	return out
}
