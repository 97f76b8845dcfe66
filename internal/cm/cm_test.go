package cm

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/abort"
)

func TestLookupAndNames(t *testing.T) {
	for _, name := range Names() {
		p, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		if p.Name() != name {
			t.Fatalf("policy %q reports name %q", name, p.Name())
		}
		if p.LockAttempts() <= 0 {
			t.Fatalf("policy %q has non-positive LockAttempts", name)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup of unknown policy succeeded")
	}
}

// TestPoliciesWaitReturns drives every policy across the abort-count range;
// waits must return promptly (bounded spins/sleeps) for every n.
func TestPoliciesWaitReturns(t *testing.T) {
	for _, name := range Names() {
		p, _ := Lookup(name)
		start := time.Now()
		for n := 1; n <= 32; n++ {
			p.Wait(n, abort.Conflict)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("policy %q waits too long: %v for 32 aborts", name, d)
		}
	}
}

func TestManagerBudget(t *testing.T) {
	m := New(Aggressive, 3)
	if m.OnAbort(1, abort.Conflict) || m.OnAbort(2, abort.Conflict) {
		t.Fatal("escalated before the budget was exhausted")
	}
	if !m.OnAbort(3, abort.Conflict) {
		t.Fatal("did not escalate at the budget")
	}
	m.SetBudget(-1)
	if m.OnAbort(1000, abort.Conflict) {
		t.Fatal("escalated with escalation disabled")
	}
}

func TestManagerPolicySwap(t *testing.T) {
	m := New(nil, DefaultBudget)
	if got := m.Policy().Name(); got != "backoff" {
		t.Fatalf("nil policy resolved to %q, want backoff", got)
	}
	m.SetPolicy(Karma)
	if got := m.Policy().Name(); got != "karma" {
		t.Fatalf("after SetPolicy, policy = %q, want karma", got)
	}
}

// TestSerialGate checks the escalation protocol: PauseCtx blocks while the
// gate is held and resumes when released, and escalations serialize.
func TestSerialGate(t *testing.T) {
	m := New(Backoff, DefaultBudget)
	m.Escalate()
	if !SerialActive() {
		t.Fatal("gate not active after Escalate")
	}

	released := make(chan struct{})
	paused := make(chan struct{})
	go func() {
		m.PauseCtx(nil) // must block until Release
		select {
		case <-released:
		default:
			t.Error("PauseCtx returned while the serial gate was held")
		}
		close(paused)
	}()

	time.Sleep(10 * time.Millisecond)
	close(released)
	m.Release()
	select {
	case <-paused:
	case <-time.After(5 * time.Second):
		t.Fatal("PauseCtx did not resume after Release")
	}
	if SerialActive() {
		t.Fatal("gate still active after Release")
	}
	if m.Escalations() != 1 {
		t.Fatalf("Escalations = %d, want 1", m.Escalations())
	}
}

// TestEscalationsSerialize runs many concurrent escalations and checks
// mutual exclusion inside the gate.
func TestEscalationsSerialize(t *testing.T) {
	m := New(Aggressive, 1)
	var inside atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				m.Escalate()
				if n := inside.Add(1); n != 1 {
					t.Errorf("%d transactions inside the serial gate", n)
				}
				inside.Add(-1)
				m.Release()
			}
		}()
	}
	wg.Wait()
	if m.Escalations() != 400 {
		t.Fatalf("Escalations = %d, want 400", m.Escalations())
	}
}

// TestRunPolicyEscalates drives the runner with a manager whose budget
// forces escalation, checking the full loop: budget aborts, then the serial
// retry commits.
func TestRunPolicyEscalates(t *testing.T) {
	const budget = 5
	m := New(Aggressive, budget)
	c := NewCore("cm-test")
	c.SetManager(m)
	attempts := 0
	var stats abort.Stats
	runFn(c, context.Background(), &stats, fnTx{run: func() {
		attempts++
		if attempts <= budget {
			abort.Retry(abort.Conflict)
		}
		// The escalated attempt must run with the gate held.
		if !SerialActive() {
			t.Error("escalated attempt ran without the serial gate")
		}
	}})
	if m.Escalations() != 1 {
		t.Fatalf("Escalations = %d, want 1", m.Escalations())
	}
	if attempts != budget+1 {
		t.Fatalf("attempts = %d, want %d", attempts, budget+1)
	}
	if stats.Commits != 1 || stats.Aborts != budget {
		t.Fatalf("stats = %+v, want 1 commit / %d aborts", stats, budget)
	}
	if c.Commits() != 1 || c.Aborts() != budget {
		t.Fatalf("core counters = %d commits / %d aborts, want 1 / %d", c.Commits(), c.Aborts(), budget)
	}
	if SerialActive() {
		t.Fatal("serial gate left closed after commit")
	}
}

// TestRunPolicyNoEscalationUnderBudget checks that a transaction that
// commits within its budget never touches the gate.
func TestRunPolicyNoEscalationUnderBudget(t *testing.T) {
	m := New(Backoff, 10)
	c := NewCore("cm-test")
	c.SetManager(m)
	attempts := 0
	runFn(c, context.Background(), nil, fnTx{run: func() {
		attempts++
		if attempts < 3 {
			abort.Retry(abort.Conflict)
		}
	}})
	if m.Escalations() != 0 {
		t.Fatalf("Escalations = %d, want 0", m.Escalations())
	}
}

func TestConfigure(t *testing.T) {
	old, oldBudget := Default().Policy(), Default().Budget()
	t.Cleanup(func() {
		Default().SetPolicy(old)
		Default().SetBudget(oldBudget)
	})
	if err := Configure("karma", 17); err != nil {
		t.Fatal(err)
	}
	if got := Default().Policy().Name(); got != "karma" {
		t.Fatalf("default policy = %q, want karma", got)
	}
	if got := Default().Budget(); got != 17 {
		t.Fatalf("default budget = %d, want 17", got)
	}
	if err := Configure("bogus", 0); err == nil {
		t.Fatal("Configure accepted an unknown policy")
	}
	if Or(nil) != Default() {
		t.Fatal("Or(nil) != Default()")
	}
	m := New(Polite, 1)
	if Or(m) != m {
		t.Fatal("Or(m) != m")
	}
}

// TestPauseCtxCancellation pins the context contract of PauseCtx while the
// serial gate is held: a dead context must get its error back promptly
// instead of waiting out the escalated transaction, and an open gate must
// short-circuit to nil even when the context is already cancelled (the
// transaction is free to proceed; its own runtime will observe the
// cancellation at the next attempt boundary).
func TestPauseCtxCancellation(t *testing.T) {
	m := New(Backoff, DefaultBudget)

	// Gate open: nil immediately, even with a cancelled context.
	dead, kill := context.WithCancel(context.Background())
	kill()
	if err := m.PauseCtx(dead); err != nil {
		t.Fatalf("PauseCtx with open gate = %v, want nil", err)
	}

	m.Escalate()
	held := true
	defer func() {
		if held {
			m.Release()
		}
	}()

	// Gate held + already-cancelled context: the ctx error, promptly.
	start := time.Now()
	if err := m.PauseCtx(dead); !errors.Is(err, context.Canceled) {
		t.Fatalf("PauseCtx(cancelled) = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("PauseCtx took %v to notice a dead context", d)
	}

	// Gate held + context that expires while parked: DeadlineExceeded, well
	// before any Release.
	expiring, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start = time.Now()
	if err := m.PauseCtx(expiring); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("PauseCtx(expiring) = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("PauseCtx blocked %v past its context deadline", d)
	}
	if !SerialActive() {
		t.Fatal("gate should still be held; PauseCtx must not touch it")
	}

	// Gate held + live context: parked until Release, then nil.
	unparked := make(chan error, 1)
	go func() { unparked <- m.PauseCtx(context.Background()) }()
	select {
	case err := <-unparked:
		t.Fatalf("PauseCtx returned %v while the gate was held", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.Release()
	held = false
	select {
	case err := <-unparked:
		if err != nil {
			t.Fatalf("PauseCtx after Release = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PauseCtx did not resume after Release")
	}
}
