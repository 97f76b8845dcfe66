package abort_test

import (
	"context"
	"errors"
	"testing"

	. "repro/internal/abort"
	"repro/internal/cm"
)

// fnTx is a cm.Tx built from closures: the retry protocol around Signal is
// tested here, next to the vocabulary, through the one loop that runs it.
type fnTx struct {
	begin, run func()
	rollback   func(Reason)
}

func (f fnTx) Begin()            { f.begin() }
func (f fnTx) Run()              { f.run() }
func (f fnTx) Commit()           {}
func (f fnTx) Rollback(r Reason) { f.rollback(r) }

func run(stats *Stats, t fnTx) error {
	h := cm.NewCore("abort-test").NewHandle()
	return h.Run(context.Background(), stats, t)
}

func TestRunRetriesUntilSuccess(t *testing.T) {
	var stats Stats
	attempts := 0
	begins := 0
	rollbacks := 0
	run(&stats, fnTx{
		begin: func() { begins++ },
		run: func() {
			attempts++
			if attempts < 3 {
				Retry(Conflict)
			}
		},
		rollback: func(r Reason) {
			if r != Conflict {
				t.Errorf("reason = %v, want Conflict", r)
			}
			rollbacks++
		},
	})
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
	run(nil, fnTx{begin: func() {}, run: func() { panic(boom) }, rollback: func(r Reason) {
		if r != Panicked {
			t.Errorf("rollback reason = %v, want Panicked", r)
		}
		rolledBack = true
	}})
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
	run(nil, fnTx{begin: func() {}, run: func() { ran = true }, rollback: func(Reason) {}})
	if !ran {
		t.Fatal("attempt did not run")
	}
}
