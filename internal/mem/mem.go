// Package mem defines the transactional memory substrate: shared 64-bit
// words (Cells) that STM algorithms read and write, grouped into arenas with
// stable integer identities.
//
// Every Cell is an atomic word, so value-based validation (NOrec, RTC,
// RInval) is data-race-free in Go while preserving the algorithms'
// semantics. Cells carry an allocation id used (instead of their address)
// to index ownership-record tables and to feed bloom filters.
//
// The package also holds Slab, the node allocator of the OTB and lazy
// linked lists, which keeps key neighbours in one cache block and each
// node's lock-and-mark Word in its page's header. Finding that header is
// the package's one use of unsafe pointer arithmetic (slab.go, locate): a
// node's address is masked down to its 8 KB page, which stays inside the
// one Go object that holds the node, and the slab panics on a chunk that is
// not 8 KB aligned.
package mem

import "sync/atomic"

// Cell is one word of transactional memory. Create Cells with an Arena (or
// NewCell for standalone globals) so that they carry a unique id.
type Cell struct {
	id uint64
	v  atomic.Uint64
}

// nextID hands out globally unique cell ids, starting at 1 so that id 0 can
// mean "no cell".
var nextID atomic.Uint64

// NewCell allocates a standalone cell holding v.
func NewCell(v uint64) *Cell {
	c := &Cell{id: nextID.Add(1)}
	c.v.Store(v)
	return c
}

// ID returns the cell's unique allocation id.
func (c *Cell) ID() uint64 { return c.id }

// Load returns the cell's current value with atomic (acquire) semantics.
// STM algorithms wrap this with their validation protocol; direct use is
// only safe outside transactions (e.g. to inspect final state in tests).
func (c *Cell) Load() uint64 { return c.v.Load() }

// Store sets the cell's value with atomic (release) semantics. Only commit
// routines and non-transactional initialization should call this.
func (c *Cell) Store(v uint64) { c.v.Store(v) }

// Arena is a fixed-capacity pool of Cells with a lock-free bump allocator.
// STM data structures (internal/stmds) allocate their node fields from an
// arena; references between nodes are cell values holding node indexes, so
// no pointers cross the transactional boundary.
type Arena struct {
	cells []Cell
	next  atomic.Uint64
}

// NewArena creates an arena with capacity for n cells.
func NewArena(n int) *Arena {
	a := &Arena{cells: make([]Cell, n)}
	for i := range a.cells {
		a.cells[i].id = nextID.Add(1)
	}
	return a
}

// Alloc reserves n consecutive cells and returns the index of the first.
// It panics if the arena is exhausted: arenas are sized by the workload
// generator, so exhaustion is a harness bug, not a recoverable condition.
func (a *Arena) Alloc(n int) uint64 {
	base := a.next.Add(uint64(n)) - uint64(n)
	if base+uint64(n) > uint64(len(a.cells)) {
		panic("mem: arena exhausted")
	}
	return base
}

// Cell returns the cell at index i.
func (a *Arena) Cell(i uint64) *Cell { return &a.cells[i] }

// Len returns the number of cells allocated so far.
func (a *Arena) Len() int { return int(a.next.Load()) }

// Cap returns the arena capacity.
func (a *Arena) Cap() int { return len(a.cells) }
