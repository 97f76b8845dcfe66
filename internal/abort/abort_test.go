package abort

import (
	"context"
	"errors"
	"testing"
)

func TestRunRetriesUntilSuccess(t *testing.T) {
	var stats Stats
	attempts := 0
	begins := 0
	rollbacks := 0
	RunPolicyCtx(context.Background(), &stats, nil,
		func() { begins++ },
		func() {
			attempts++
			if attempts < 3 {
				Retry(Conflict)
			}
		},
		func(r Reason) {
			if r != Conflict {
				t.Errorf("reason = %v, want Conflict", r)
			}
			rollbacks++
		},
	)
	if attempts != 3 || begins != 3 || rollbacks != 2 {
		t.Fatalf("attempts=%d begins=%d rollbacks=%d; want 3,3,2", attempts, begins, rollbacks)
	}
	if stats.Commits != 1 || stats.Aborts != 2 {
		t.Fatalf("stats = %+v; want 1 commit, 2 aborts", stats)
	}
}

func TestForeignPanicsPropagate(t *testing.T) {
	boom := errors.New("boom")
	rolledBack := false
	defer func() {
		if p := recover(); p != boom {
			t.Fatalf("recovered %v, want the foreign panic", p)
		}
		if !rolledBack {
			t.Error("foreign panic must roll back (release locks) before propagating")
		}
	}()
	RunPolicyCtx(context.Background(), nil, nil, func() {}, func() { panic(boom) }, func(r Reason) {
		if r != Panicked {
			t.Errorf("rollback reason = %v, want Panicked", r)
		}
		rolledBack = true
	})
}

func TestReasonStrings(t *testing.T) {
	cases := map[Reason]string{
		Conflict:    "conflict",
		LockBusy:    "lock-busy",
		Invalidated: "invalidated",
		Explicit:    "explicit",
		Reason(99):  "unknown",
	}
	for r, want := range cases {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), want)
		}
	}
}

func TestNilStats(t *testing.T) {
	ran := false
	RunPolicyCtx(context.Background(), nil, nil, func() {}, func() { ran = true }, func(Reason) {})
	if !ran {
		t.Fatal("attempt did not run")
	}
}
