package mem

import (
	"cmp"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/spin"
)

// Slab geometry. A block is the 128-byte adjacent-line prefetch pair, so a
// walk that steps to a neighbour in the same block pays no new miss; a node
// is 16 bytes (key and next), so eight share a block. Everything else a
// node needs (lock, mark, slot) lives in its page's header, where no walk
// reads it. A page is the runtime's 8 KB page: a header of word blocks, then
// node blocks. A chunk is four pages, one 32 KB Go object in the runtime's
// largest small size class, whose spans are page-aligned. The numbers were
// measured on the OTB list (DESIGN "List nodes"); they are not options.
const (
	// SlotSize is the size every slab node must have.
	SlotSize = 16
	// BlockSlots is the number of slots sharing one 128-byte block.
	BlockSlots = blockBytes / SlotSize
	// ChunkSlots is the number of slots the slab grows by.
	ChunkSlots = chunkPages * pageSlots

	pageSize     = 8192
	pageSlots    = pageBlocks * BlockSlots
	blockBytes   = 128
	headerBlocks = 13 // a word per slot and the page's first slot index
	pageBlocks   = pageSize/blockBytes - headerBlocks
	headerBytes  = headerBlocks * blockBytes
	chunkPages   = 4
	chunkBlocks  = chunkPages * pageBlocks
	fullMask     = 1<<BlockSlots - 1
)

// Word is a slab node's lock-and-mark word, kept in its page's header so
// that a walk, which reads only key and next, never loads it. Bit 0 is the
// lock (a locked word is odd), bit 1 the mark (logically deleted), and bits
// 2–31 a version that every publishing unlock advances, modulo 2³⁰. One
// load reads mark and version together. A reused slot keeps its version.
type Word struct{ v atomic.Uint32 }

const (
	wordLocked  = 1
	wordMarked  = 2
	wordVersion = 4
)

// IsLocked reports whether a sampled word is locked.
func IsLocked(v uint32) bool { return v&wordLocked != 0 }

// IsMarked reports whether a sampled word is marked.
func IsMarked(v uint32) bool { return v&wordMarked != 0 }

// Load samples the word.
func (w *Word) Load() uint32 { return w.v.Load() }

// TryLock takes the lock if it is free, without waiting.
func (w *Word) TryLock() bool {
	v := w.v.Load()
	return v&wordLocked == 0 && w.v.CompareAndSwap(v, v|wordLocked)
}

// Lock spins (yielding) until it takes the lock.
func (w *Word) Lock() {
	var b spin.Backoff
	for !w.TryLock() {
		b.Wait()
	}
}

// Unlock releases the lock and advances the version, so that a validation
// holding an older sample sees the change. It panics if the lock is free.
func (w *Word) Unlock() {
	v := w.v.Load()
	if v&wordLocked == 0 {
		panic("mem: Unlock of unlocked Word")
	}
	w.v.Store(v&^wordLocked + wordVersion)
}

// UnlockUnchanged releases the lock and leaves the version as it was, for
// a holder that published nothing. It panics if the lock is free.
func (w *Word) UnlockUnchanged() {
	v := w.v.Load()
	if v&wordLocked == 0 {
		panic("mem: UnlockUnchanged of unlocked Word")
	}
	w.v.Store(v &^ wordLocked)
}

// WordOrder compares words by address: a total order among live words that
// never changes (the collector does not move objects, and a recycled slot or
// tower keeps its word), in which a transaction takes their locks.
func WordOrder(a, b *Word) int {
	return cmp.Compare(uintptr(unsafe.Pointer(a)), uintptr(unsafe.Pointer(b)))
}

// Mark sets the mark bit.
func (w *Word) Mark() { w.v.Or(wordMarked) }

// Reuse clears the mark of a recycled slot and keeps its version.
func (w *Word) Reuse() { w.v.And(^uint32(wordMarked)) }

// pageHeader is the first 13 blocks of a page: one word per slot, and the
// slab-wide index of the page's first slot.
type pageHeader struct {
	words [pageSlots]Word
	first uint32
	_     [headerBytes - pageSlots*4 - 4]byte
}

// page is one 8 KB runtime page of a chunk: its header, then its node
// blocks, each 128-byte aligned because the page is.
type page[T any] struct {
	pageHeader
	blocks [pageBlocks][BlockSlots]T
}

// locate finds the header of the page holding the slab node at p, and the
// node's offset within the page, by masking p's address down to the page.
// This is the package's one use of pointer arithmetic, and its rule: p
// points into a chunk's pages, one Go object that newChunk checked is 8 KB
// aligned, so the page start lies inside the same object (checkptr-clean).
func locate(p unsafe.Pointer) (*pageHeader, uintptr) {
	h := (*pageHeader)(unsafe.Pointer(uintptr(p) &^ (pageSize - 1)))
	return h, (uintptr(p)&(pageSize-1) - headerBytes) / SlotSize
}

// WordOf returns the lock-and-mark word of n, which must be a node of a
// Slab[T].
func WordOf[T any](n *T) *Word {
	h, i := locate(unsafe.Pointer(n))
	return &h.words[i]
}

// SlotOf returns the slab-wide slot index of n, which must be a node of a
// Slab[T]: chunk, then page, then block, then slot. It never changes, so it
// is a stable, unique identity among the slab's nodes (the OTB list orders
// its semantic locks by it).
func SlotOf[T any](n *T) uint32 {
	h, i := locate(unsafe.Pointer(n))
	return h.first + uint32(i)
}

// chunk is one allocation unit: four pages as a single Go object, and one
// free mask per node block (bit i set = slot i free).
type chunk[T any] struct {
	pages *[chunkPages]page[T]
	free  [chunkBlocks]atomic.Uint32
}

// newChunk makes a chunk of pages whose first slot has index base. It
// panics unless pages is 8 KB aligned: locate relies on it.
func newChunk[T any](pages *[chunkPages]page[T], base uint32) *chunk[T] {
	if uintptr(unsafe.Pointer(pages))%pageSize != 0 {
		panic("mem: slab chunk is not 8 KB aligned")
	}
	c := &chunk[T]{pages: pages}
	for p := range pages {
		pages[p].first = base + uint32(p)*pageSlots
	}
	for b := range c.free {
		c.free[b].Store(fullMask)
	}
	return c
}

// node returns the slot'th node of block b of the chunk.
func (c *chunk[T]) node(b, slot uint32) *T {
	return &c.pages[b/pageBlocks].blocks[b%pageBlocks][slot]
}

// Slab is a per-structure node allocator that keeps key neighbours in one
// cache block. A linked list's traversal is a chain of dependent loads, and
// its cost depends on which nodes share a line, not on how many lines the
// list covers: Alloc(pred, succ) places a new node in its predecessor's
// block if that has room, else in its successor's, else in an empty block;
// only when no empty block is left and capacity is at least twice the live
// count does it take a slot in any partially free block.
//
// Claims are a CAS on the block's free mask; the mutex guards only the
// empty-block stack and growth. Free is the epoch-reclamation callback, so
// a slot is reused only after every traversal that could reach its old node
// has unpinned. A reused slot keeps whatever its last node left, its Word
// included: callers reset what they need (Word.Reuse keeps the version,
// which must stay monotone). The slab never shrinks: capacity stays ≤ 2 ×
// peak live + one chunk.
type Slab[T any] struct {
	chunks atomic.Pointer[[]*chunk[T]]
	live   atomic.Int64
	cursor atomic.Uint32 // block where the partial-block scan resumes

	// Free returns a node's slot to the slab; it is the epoch.Retire
	// callback. It is one func value made with the slab, so retiring a node
	// does not allocate.
	Free func(any)

	mu    sync.Mutex
	empty []uint32 // wholly free blocks (slab-wide index); a new chunk stacks lowest on top
}

// NewSlab creates an empty slab. It panics unless T is SlotSize bytes.
func NewSlab[T any]() *Slab[T] {
	if unsafe.Sizeof(*new(T)) != SlotSize || unsafe.Sizeof(page[T]{}) != pageSize {
		panic("mem: slab nodes must be 16 bytes")
	}
	s := &Slab[T]{}
	s.chunks.Store(new([]*chunk[T]))
	s.Free = s.free
	return s
}

// Alloc claims a slot next to pred (or, failing that, succ) in memory.
// pred and succ may be nil; if not, they must be live nodes of this slab
// (so their blocks are never wholly free). The node and its Word hold
// whatever the slot's previous occupant left.
func (s *Slab[T]) Alloc(pred, succ *T) *T {
	for _, near := range [2]*T{pred, succ} {
		if near != nil {
			if n := s.claim(SlotOf(near)/BlockSlots, false); n != nil {
				return n
			}
		}
	}
	scanned := false
	for {
		s.mu.Lock()
		if n := len(s.empty); n > 0 {
			b := s.empty[n-1]
			s.empty = s.empty[:n-1]
			s.mu.Unlock()
			// Off the stack and wholly free: no one else claims from it.
			if n := s.claim(b, false); n != nil {
				return n
			}
			continue
		}
		if scanned || s.Cap() < 2*(s.Live()+1) {
			s.growLocked()
			s.mu.Unlock()
			continue
		}
		s.mu.Unlock()
		if n := s.claimPartial(); n != nil {
			return n
		}
		scanned = true // a concurrent Alloc took the last free slots
	}
}

// claim takes the lowest free slot of block b, or returns nil if the block
// is full (or, with partialOnly, wholly free — those belong to the stack).
func (s *Slab[T]) claim(b uint32, partialOnly bool) *T {
	c := (*s.chunks.Load())[b/chunkBlocks]
	m := &c.free[b%chunkBlocks]
	for {
		old := m.Load()
		if old == 0 || partialOnly && old == fullMask {
			return nil
		}
		i := uint32(bits.TrailingZeros32(old))
		if m.CompareAndSwap(old, old&^(1<<i)) {
			s.live.Add(1)
			return c.node(b%chunkBlocks, i)
		}
	}
}

// claimPartial scans the blocks round-robin from where the last scan
// succeeded for one with a free slot.
func (s *Slab[T]) claimPartial() *T {
	nb := uint32(s.Cap() / BlockSlots)
	start := s.cursor.Load()
	for k := uint32(0); k < nb; k++ {
		b := (start + k) % nb
		if n := s.claim(b, true); n != nil {
			s.cursor.Store(b)
			return n
		}
	}
	return nil
}

// growLocked adds a chunk and stacks its blocks lowest-on-top. Caller holds
// s.mu.
func (s *Slab[T]) growLocked() {
	old := *s.chunks.Load()
	c := newChunk(new([chunkPages]page[T]), uint32(len(old))*ChunkSlots)
	next := append(old[:len(old):len(old)], c)
	s.chunks.Store(&next)
	for b := chunkBlocks - 1; b >= 0; b-- {
		s.empty = append(s.empty, uint32(len(old)*chunkBlocks+b))
	}
}

// free is Free: it sets the slot's bit and stacks the block once it is
// wholly free.
func (s *Slab[T]) free(v any) {
	i := SlotOf(v.(*T))
	b := i / BlockSlots
	bit := uint32(1) << (i % BlockSlots)
	c := (*s.chunks.Load())[b/chunkBlocks]
	old := c.free[b%chunkBlocks].Or(bit)
	if old&bit != 0 {
		panic("mem: slab slot freed twice")
	}
	s.live.Add(-1)
	if old|bit == fullMask {
		s.mu.Lock()
		s.empty = append(s.empty, b)
		s.mu.Unlock()
	}
}

// Live returns the number of claimed slots.
func (s *Slab[T]) Live() int { return int(s.live.Load()) }

// Cap returns the number of slots the slab holds, claimed or free.
func (s *Slab[T]) Cap() int { return len(*s.chunks.Load()) * ChunkSlots }

// InUse reports whether the slot with the given index is claimed (tests
// audit free masks against a structure's reachable nodes with it).
func (s *Slab[T]) InUse(slot uint32) bool {
	c := (*s.chunks.Load())[slot/ChunkSlots]
	return c.free[slot%ChunkSlots/BlockSlots].Load()&(1<<(slot%BlockSlots)) == 0
}
