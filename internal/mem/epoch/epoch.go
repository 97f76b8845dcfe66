// Package epoch implements epoch-based reclamation (EBR) for lock-free and
// optimistically traversed data structures: retired nodes are recycled into
// object pools only after every thread that could still hold a reference has
// moved on, replacing the allocate-and-let-GC-sweep pattern on the hot path.
//
// The scheme is the classic three-epoch design (Fraser 2004). A global epoch
// counter advances only when every pinned guard has observed the current
// value; a node retired in epoch e is handed back to its pool when the
// global epoch reaches e+2, by which time every guard that was active when
// the node was unlinked has exited. Unlike hazard pointers, readers pay only
// two uncontended atomic stores per critical region (pin and unpin) and
// never per-node bookkeeping — the right trade for OTB's unmonitored
// traversals, which visit hundreds of nodes per operation.
//
// Usage:
//
//	g := epoch.Default.Enter()   // pin: traversed nodes stay alive
//	... traverse, unlink nodes, g.Retire(n, freeFn) ...
//	g.Exit()                     // unpin: flush retirements
//
// Guards are pooled; Enter/Exit on the steady state perform no allocation.
package epoch

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/spin"
)

// retired is one node awaiting reclamation: the value and the function that
// returns it to its owner's pool. free must be a top-level function or a
// func value made once (a mem.Slab's Free): method values and closures
// evaluated at the Retire call site allocate.
type retired struct {
	v    any
	free func(any)
}

// slot is one guard's padded epoch announcement: 0 when idle, the pinned
// epoch otherwise. Slots live forever (they are recycled through a freelist
// when their guard is collected), so the advance scan may visit slots whose
// guard is long gone — those read 0 and do not block progress.
type slot struct {
	e atomic.Uint64
	_ [spin.CacheLineSize - 8]byte
}

// Manager is an independent reclamation domain. Structures sharing nodes
// must share a Manager; unrelated structures may use separate managers (or
// the package-level Default).
type Manager struct {
	epoch atomic.Uint64 // current global epoch, starts at 1

	mu      sync.Mutex
	slots   []*slot // every announcement slot ever registered
	free    []*slot // slots whose guards were collected, for reuse
	buckets [3]struct {
		items []retired // retirements tagged with epoch ≡ index (mod 3)
	}
	reclaimed atomic.Uint64 // lifetime count of nodes handed back to pools

	pool sync.Pool // *Guard
}

// NewManager creates a reclamation domain.
func NewManager() *Manager {
	m := &Manager{}
	m.epoch.Store(1)
	m.pool.New = func() any { return m.newGuard() }
	return m
}

// Default is the shared reclamation domain used by the OTB and concurrent
// structures in this repository.
var Default = NewManager()

// Guard is one pinned critical region. A Guard is owned by a single
// goroutine between Enter and Exit and must not be shared.
type Guard struct {
	m     *Manager
	slot  *slot
	batch []retired // retirements made under this pin, flushed on Exit
}

// newGuard allocates a guard with a registered announcement slot, reusing a
// slot whose previous guard was dropped by the pool if one is available. The
// finalizer returns the slot to the freelist when the pool discards the
// guard during a GC cycle, so slot registrations do not grow without bound.
func (m *Manager) newGuard() *Guard {
	m.mu.Lock()
	var s *slot
	if n := len(m.free); n > 0 {
		s = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		s = new(slot)
		m.slots = append(m.slots, s)
	}
	m.mu.Unlock()
	g := &Guard{m: m, slot: s}
	runtime.SetFinalizer(g, func(g *Guard) {
		g.m.mu.Lock()
		g.m.free = append(g.m.free, g.slot)
		g.m.mu.Unlock()
	})
	return g
}

// Enter pins the calling goroutine to the current epoch and returns the
// guard. Until Exit, no node retired during the pin (by anyone) is recycled,
// so references obtained from the shared structure stay valid.
func (m *Manager) Enter() *Guard {
	g := m.pool.Get().(*Guard)
	for {
		e := m.epoch.Load()
		g.slot.e.Store(e)
		// Re-check: if the global epoch moved between the load and the
		// announcement, the advancing thread may not have seen our pin;
		// re-announce at the new epoch. Both operations are sequentially
		// consistent, so once the re-check passes, any later advance scan
		// observes the announcement.
		if m.epoch.Load() == e {
			return g
		}
	}
}

// Retire schedules v for recycling once no pinned guard can still hold a
// reference. free is called exactly once, after two epoch advances; it must
// be a top-level function or a stored func value (not a closure or method
// value made per call) for Retire to stay allocation-free in the steady
// state.
func (g *Guard) Retire(v any, free func(any)) {
	g.batch = append(g.batch, retired{v: v, free: free})
}

// Exit unpins the guard, publishes its retirements tagged with the current
// epoch, attempts to advance the epoch, and returns the guard to the pool.
func (g *Guard) Exit() {
	if len(g.batch) > 0 {
		m := g.m
		m.mu.Lock()
		e := m.epoch.Load()
		b := &m.buckets[e%3]
		b.items = append(b.items, g.batch...)
		g.m.tryAdvanceLocked()
		m.mu.Unlock()
		clear(g.batch)
		g.batch = g.batch[:0]
	}
	g.slot.e.Store(0)
	g.m.pool.Put(g)
}

// tryAdvanceLocked advances the global epoch if every pinned guard has
// observed it, then recycles the retirements that two advances have proven
// unreachable. Caller holds m.mu.
func (m *Manager) tryAdvanceLocked() {
	e := m.epoch.Load()
	for _, s := range m.slots {
		if v := s.e.Load(); v != 0 && v < e {
			return // a guard is still pinned at an older epoch
		}
	}
	m.epoch.Store(e + 1)
	// The bucket now tagged (e+1)%3 holds retirements from epoch e-2: every
	// guard active at their retirement has since exited (it would otherwise
	// have blocked one of the two intervening advances). Recycle them.
	b := &m.buckets[(e+1)%3]
	for i := range b.items {
		b.items[i].free(b.items[i].v)
	}
	m.reclaimed.Add(uint64(len(b.items)))
	clear(b.items)
	b.items = b.items[:0]
}

// Advance attempts one epoch advance (recycling anything that became safe).
// Reclamation normally piggybacks on Exit; Advance lets idle periods and
// tests drain the limbo lists.
func (m *Manager) Advance() {
	m.mu.Lock()
	m.tryAdvanceLocked()
	m.mu.Unlock()
}

// Drain advances until all limbo buckets are empty. It only makes progress
// while no guard is pinned; tests call it after workers have stopped.
func (m *Manager) Drain() {
	for i := 0; i < 3; i++ {
		m.Advance()
	}
}

// Reclaimed returns the lifetime count of nodes recycled (diagnostics and
// tests).
func (m *Manager) Reclaimed() uint64 { return m.reclaimed.Load() }

// Pending returns the number of retirements awaiting reclamation
// (diagnostics and tests); it takes the manager lock.
func (m *Manager) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for i := range m.buckets {
		n += len(m.buckets[i].items)
	}
	return n
}
