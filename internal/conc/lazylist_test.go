package conc

import (
	"testing"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/race"
)

// TestListNodeSize: the list core's node is 16 bytes (lock and mark live in
// the slab's word table), and the lazy list's sentinels share one block.
func TestListNodeSize(t *testing.T) {
	if n := unsafe.Sizeof(ListNode{}); n != mem.SlotSize {
		t.Fatalf("unsafe.Sizeof(ListNode{}) = %d, want %d", n, mem.SlotSize)
	}
	l := NewLazyList()
	head := l.core.Head
	if tail := head.Next(); tail.Slot()/mem.BlockSlots != head.Slot()/mem.BlockSlots {
		t.Errorf("sentinels in slots %d and %d, want one block", tail.Slot(), head.Slot())
	}
}

// TestLazyListChurnAllocFree: once the slab holds enough slots, add/remove
// churn recycles them through the epoch domain and never allocates.
func TestLazyListChurnAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("race-mode sync.Pool drops Puts at random; epoch guards are pooled")
	}
	l := NewLazyList()
	for k := int64(1); k <= 64; k++ {
		l.Add(k)
	}
	fn := func() {
		l.Remove(32)
		l.Add(32)
	}
	for i := 0; i < 200; i++ {
		fn()
	}
	if allocs := testing.AllocsPerRun(1000, fn); allocs > 0 {
		t.Errorf("lazy list add/remove: %.2f allocs/op, want 0", allocs)
	}
	if n := l.Len(); n != 64 {
		t.Errorf("Len = %d, want 64", n)
	}
}
