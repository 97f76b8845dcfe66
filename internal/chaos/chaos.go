// Package chaos packages the fault-injection patterns the transactional
// runtimes are tested with: foreign lock holders, concurrent committers
// racing a victim transaction, forced-abort injectors, and sustained write
// storms. The helpers grew out of the OTB injection tests and are shared by
// the boosting, STM, and starvation tests so every runtime is provoked the
// same way.
//
// The helpers are deliberately runtime-agnostic: they speak abort.Signal
// (the universal abort protocol) and mem.Word (the lists' semantic lock),
// never a specific STM's types.
package chaos

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/abort"
	"repro/internal/mem"
)

// HoldLock acquires a list node's semantic lock as a foreign holder —
// standing in for a concurrent transaction parked between PreCommit and
// OnCommit — and returns the release function. The caller's transaction
// must then observe the lock busy. It fails the test if the lock is already
// held.
func HoldLock(t testing.TB, l *mem.Word) (release func()) {
	t.Helper()
	if !l.TryLock() {
		t.Fatal("chaos: could not take foreign lock")
	}
	return l.UnlockUnchanged
}

// CommitConcurrently runs commit on another goroutine and waits for it to
// finish. Called from inside a victim transaction's body, it interleaves a
// full committed transaction into the victim's execution, invalidating
// whatever the victim has read so its next post-validation must abort.
func CommitConcurrently(commit func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		commit()
	}()
	<-done
}

// ExpectAbort runs f expecting it to abort with reason want, failing the
// test if f returns normally or aborts with a different reason. It is the
// assertion form of the abort.Signal recover idiom for driving a single
// transaction attempt by hand.
func ExpectAbort(t testing.TB, want abort.Reason, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		sig, ok := recover().(abort.Signal)
		if !ok {
			t.Fatalf("chaos: expected abort signal, got %v", sig)
		}
		if sig.Reason != want {
			t.Fatalf("chaos: abort reason = %v, want %v", sig.Reason, want)
		}
	}()
	f()
	t.Fatalf("chaos: expected %v abort, f returned normally", want)
}

// AbortInjector forces a transaction to abort for its first N attempts,
// making retry-loop behaviour (budgets, escalation) deterministic instead of
// depending on real conflicts. Place Hit inside the transaction body:
//
//	inj := chaos.NewAbortInjector(5, abort.Conflict)
//	otb.Atomic(nil, func(tx *otb.Tx) {
//		inj.Hit() // aborts attempts 1..5, no-op from attempt 6 on
//		...
//	})
//
// The counter is atomic, so one injector can doom transactions on several
// goroutines until its budget of forced aborts is spent.
type AbortInjector struct {
	remaining atomic.Int64
	reason    abort.Reason
}

// NewAbortInjector creates an injector that forces n aborts with the given
// reason.
func NewAbortInjector(n int, r abort.Reason) *AbortInjector {
	inj := &AbortInjector{reason: r}
	inj.remaining.Store(int64(n))
	return inj
}

// Hit aborts the calling transaction attempt while forced aborts remain.
func (inj *AbortInjector) Hit() {
	if inj.remaining.Add(-1) >= 0 {
		abort.Retry(inj.reason)
	}
}

// Storm starts n goroutines repeatedly calling work (each is passed its
// worker index) and returns a stop function that halts them and waits for
// them to exit. It is the write-storm harness of the starvation tests: the
// storm keeps committing while a victim transaction tries to get through.
func Storm(n int, work func(worker int)) (stop func()) {
	var halt atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for !halt.Load() {
				work(worker)
			}
		}(i)
	}
	return func() {
		halt.Store(true)
		wg.Wait()
	}
}
