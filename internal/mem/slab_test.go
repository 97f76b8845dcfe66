package mem

import (
	"testing"
	"unsafe"
)

// testNode is a minimal 16-byte slab node.
type testNode struct {
	key int64
	_   [8]byte
}

func block(n *testNode) uint32 { return SlotOf(n) / BlockSlots }

// TestSlabPlacesNearNeighbours: pred's block first, then succ's, then an
// empty block — never a partially used one while empty blocks remain.
func TestSlabPlacesNearNeighbours(t *testing.T) {
	s := NewSlab[testNode]()
	a := s.Alloc(nil, nil)
	for i := 1; i < BlockSlots; i++ {
		if n := s.Alloc(a, nil); block(n) != block(a) {
			t.Fatalf("alloc %d next to slot %d landed in block %d, want %d", i, SlotOf(a), block(n), block(a))
		}
	}
	b := s.Alloc(a, nil) // a's block is full: an empty block
	if block(b) == block(a) {
		t.Fatalf("alloc into full block %d", block(a))
	}
	if n := s.Alloc(a, b); block(n) != block(b) {
		t.Fatalf("pred's block full: landed in block %d, want succ's %d", block(n), block(b))
	}
	s.Free(a) // a's block now has one free slot, but is not empty
	if n := s.Alloc(nil, nil); block(n) == block(a) {
		t.Fatalf("no neighbours given: took partially free block %d while empty blocks remain", block(a))
	}
	if n := s.Alloc(b, nil); block(n) != block(b) {
		t.Fatalf("landed in block %d, want pred's %d", block(n), block(b))
	}
}

// TestSlabSlotsAndWords fills three chunks and checks the address
// arithmetic against the layout: slots are 0..n-1 in allocation order (a
// fresh slab hands out blocks lowest first), each block is 128-byte aligned,
// a block's slots are consecutive 16-byte nodes, and every node has a word
// of its own in its page's header.
func TestSlabSlotsAndWords(t *testing.T) {
	s := NewSlab[testNode]()
	words := map[*Word]uint32{}
	var pred *testNode
	for i := uint32(0); i < 3*ChunkSlots; i++ {
		n := s.Alloc(pred, nil)
		if got := SlotOf(n); got != i {
			t.Fatalf("node %d has slot %d", i, got)
		}
		a := uintptr(unsafe.Pointer(n))
		if i%BlockSlots == 0 && a%(SlotSize*BlockSlots) != 0 {
			t.Fatalf("block of slot %d at %#x, not 128-byte aligned", i, a)
		}
		if i%BlockSlots != 0 && a != uintptr(unsafe.Pointer(pred))+SlotSize {
			t.Fatalf("slot %d at %#x does not follow slot %d at %p", i, a, i-1, pred)
		}
		pred = n
		w := WordOf(n)
		if page := uintptr(unsafe.Pointer(w)) &^ (pageSize - 1); page != a&^(pageSize-1) {
			t.Fatalf("slot %d: word in page %#x, node in page %#x", i, page, a&^(pageSize-1))
		}
		if prev, dup := words[w]; dup {
			t.Fatalf("slots %d and %d share a word", prev, i)
		}
		words[w] = i
		if !s.InUse(i) {
			t.Fatalf("slot %d claimed but not in use", i)
		}
	}
}

// TestSlabWord runs the word's lock, mark and version through one node's
// life and its slot's reuse.
func TestSlabWord(t *testing.T) {
	s := NewSlab[testNode]()
	n := s.Alloc(nil, nil)
	w := WordOf(n)
	v0 := w.Load()
	if IsLocked(v0) || IsMarked(v0) {
		t.Fatalf("fresh word %#x is locked or marked", v0)
	}
	if !w.TryLock() || w.TryLock() || !IsLocked(w.Load()) {
		t.Fatal("TryLock does not exclude")
	}
	w.UnlockUnchanged()
	if w.Load() != v0 {
		t.Fatalf("UnlockUnchanged: %#x, want %#x", w.Load(), v0)
	}
	w.Lock()
	w.Mark()
	w.Unlock()
	v1 := w.Load()
	if IsLocked(v1) || !IsMarked(v1) || v1 == v0|wordMarked {
		t.Fatalf("after a marking Unlock: %#x (version unchanged, or lock held, or mark lost)", v1)
	}
	s.Free(n)
	if m := s.Alloc(nil, nil); m != n {
		t.Fatal("the only free slot was not reused")
	}
	w.Reuse()
	if v := w.Load(); IsMarked(v) || v != v1&^wordMarked {
		t.Fatalf("Reuse: %#x, want the version of %#x unmarked", v, v1)
	}
}

// TestSlabCapacityBound churns a slab up and down: capacity never exceeds
// 2 × peak live + one chunk, wholly freed blocks are reused, and live counts
// exactly.
func TestSlabCapacityBound(t *testing.T) {
	s := NewSlab[testNode]()
	var nodes []*testNode
	peak := 0
	for round := 0; round < 4; round++ {
		var pred *testNode
		for i := 0; i < 3*ChunkSlots; i++ {
			pred = s.Alloc(pred, nil)
			nodes = append(nodes, pred)
			peak = max(peak, s.Live())
		}
		// Free every other node, then every node: partial blocks, then empty.
		for i := 0; i < len(nodes); i += 2 {
			s.Free(nodes[i])
		}
		for i := 1; i < len(nodes); i += 2 {
			s.Free(nodes[i])
		}
		nodes = nodes[:0]
		if s.Live() != 0 {
			t.Fatalf("round %d: live = %d after freeing everything", round, s.Live())
		}
		if c := s.Cap(); c > 2*peak+ChunkSlots {
			t.Fatalf("round %d: cap %d > 2 × peak %d + one chunk", round, c, peak)
		}
	}
	if c := s.Cap(); c > 3*ChunkSlots {
		t.Fatalf("cap %d after four identical rounds of %d live: freed blocks not reused", c, 3*ChunkSlots)
	}
}

func TestSlabDoubleFreePanics(t *testing.T) {
	s := NewSlab[testNode]()
	n := s.Alloc(nil, nil)
	s.Free(n)
	defer func() {
		if recover() == nil {
			t.Fatal("second Free of one slot did not panic")
		}
	}()
	s.Free(n)
}

type fatNode struct {
	_ [32]byte
}

func TestSlabRejectsOtherSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSlab accepted a 32-byte node")
		}
	}()
	NewSlab[fatNode]()
}

// TestSlabMisalignedChunkPanics: locate masks a node's address down to its
// 8 KB page, so a chunk whose pages are not 8 KB aligned must be refused
// before any node is handed out.
func TestSlabMisalignedChunkPanics(t *testing.T) {
	type pages = [chunkPages]page[testNode]
	buf := new([unsafe.Sizeof(pages{}) + 2*pageSize]byte)
	aligned := (pageSize - uintptr(unsafe.Pointer(buf))%pageSize) % pageSize
	for _, off := range []uintptr{aligned + SlotSize*BlockSlots, aligned + 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newChunk accepted pages %d bytes past an 8 KB boundary", off-aligned)
				}
			}()
			newChunk((*pages)(unsafe.Add(unsafe.Pointer(buf), off)), 0)
		}()
	}
}
