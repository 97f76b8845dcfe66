package boosting

import (
	"testing"

	"repro/internal/abort"
)

// distinctStripes returns keys whose abstract locks live on n distinct
// stripes of table.
func distinctStripes(table *LockTable, n int) ([]int64, []*RWLock) {
	keys := make([]int64, 0, n)
	locks := make([]*RWLock, 0, n)
	seen := make(map[*RWLock]bool)
	for k := int64(0); len(keys) < n; k++ {
		l := table.For(k)
		if seen[l] {
			continue
		}
		seen[l] = true
		keys = append(keys, k)
		locks = append(locks, l)
	}
	return keys, locks
}

// TestTimeoutReleasesPartialLocksInReverse pins the lock-timeout recovery
// path: a transaction that times out acquiring its third abstract lock must
// release the two it already holds, in reverse acquisition order, leaving
// every lock free for the next transaction.
func TestTimeoutReleasesPartialLocksInReverse(t *testing.T) {
	table := NewLockTable(64)
	_, locks := distinctStripes(table, 3)
	lA, lB, lC := locks[0], locks[1], locks[2]

	// A competitor write-holds the third lock for the whole test, so the
	// victim's third acquisition exhausts its spin budget and times out.
	if !lC.tryWrite() {
		t.Fatal("could not pre-acquire the blocking lock")
	}
	defer lC.releaseWrite()

	var released []*RWLock
	releaseHook = func(l *RWLock, _ lockMode) { released = append(released, l) }
	defer func() { releaseHook = nil }()

	tx := &Tx{}
	timedOut := false
	func() {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			sig, ok := p.(abort.Signal)
			if !ok || sig.Reason != abort.Timeout {
				panic(p)
			}
			timedOut = true
			tx.rollback()
		}()
		tx.AcquireWrite(lA)
		tx.AcquireRead(lB)
		tx.AcquireWrite(lC) // blocked: spins out and aborts with Timeout
	}()

	if !timedOut {
		t.Fatal("third acquisition did not time out")
	}
	if len(released) != 2 || released[0] != lB || released[1] != lA {
		t.Fatalf("release order = %v, want [B, A] (reverse acquisition)", released)
	}
	if got := lA.state.Load(); got != 0 {
		t.Fatalf("lock A state = %d after rollback, want 0", got)
	}
	if got := lB.state.Load(); got != 0 {
		t.Fatalf("lock B state = %d after rollback, want 0", got)
	}
	if len(tx.held) != 0 {
		t.Fatalf("tx still tracks %d held locks after rollback", len(tx.held))
	}

	// With the blocker gone, a fresh transaction takes all three locks.
	lC.releaseWrite()
	tx2 := &Tx{}
	tx2.AcquireWrite(lA)
	tx2.AcquireWrite(lB)
	tx2.AcquireWrite(lC)
	tx2.commit()
	lC.tryWrite() // re-hold so the deferred releaseWrite stays balanced
}

// TestPanicDuringPartialLockSetReleasesAll pins the same invariant for the
// failpoint-driven crash: a panic injected while the transaction holds some
// but not all of its abstract locks must release them all in reverse order
// on the way to the caller.
func TestPanicDuringPartialLockSetReleasesAll(t *testing.T) {
	table := NewLockTable(64)
	keys, locks := distinctStripes(table, 3)
	_ = keys

	var released []*RWLock
	releaseHook = func(l *RWLock, _ lockMode) { released = append(released, l) }
	defer func() { releaseHook = nil }()

	sawPanic := false
	func() {
		defer func() {
			if p := recover(); p != nil {
				sawPanic = true
			}
		}()
		_ = AtomicCtx(nil, nil, nil, func(tx *Tx) {
			tx.AcquireWrite(locks[0])
			tx.AcquireWrite(locks[1])
			tx.AcquireWrite(locks[2])
			panic("injected crash with a full partial lock set")
		})
	}()

	if !sawPanic {
		t.Fatal("panic did not reach the caller")
	}
	want := []*RWLock{locks[2], locks[1], locks[0]}
	if len(released) != 3 || released[0] != want[0] || released[1] != want[1] || released[2] != want[2] {
		t.Fatalf("release order = %v, want reverse acquisition %v", released, want)
	}
	for i, l := range locks {
		if got := l.state.Load(); got != 0 {
			t.Fatalf("lock %d state = %d after panic recovery, want 0", i, got)
		}
	}
}
