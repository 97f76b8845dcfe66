package cm

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/abort"
	"repro/internal/telemetry"
)

// fnTx is a Tx built from closures (nil ones are no-ops), so a test states
// only the stage it cares about.
type fnTx struct {
	begin, run, commit func()
	rollback           func(abort.Reason)
}

func call(f func()) {
	if f != nil {
		f()
	}
}

func (f fnTx) Begin()  { call(f.begin) }
func (f fnTx) Run()    { call(f.run) }
func (f fnTx) Commit() { call(f.commit) }
func (f fnTx) Rollback(r abort.Reason) {
	if f.rollback != nil {
		f.rollback(r)
	}
}

func runFn(c *Core, ctx context.Context, stats *abort.Stats, t fnTx) error {
	h := c.NewHandle()
	return h.Run(ctx, stats, t)
}

// meterDelta arms telemetry and returns a func reporting how a meter's
// counters moved since the call.
func meterDelta(t *testing.T, name string) func() telemetry.MeterSnapshot {
	t.Helper()
	was := telemetry.Default.Enabled()
	telemetry.Enable()
	t.Cleanup(func() { telemetry.Default.SetEnabled(was) })
	before := telemetry.M(name).Snapshot()
	return func() telemetry.MeterSnapshot {
		d := telemetry.M(name).Snapshot()
		d.Commits -= before.Commits
		for r := range d.Aborts {
			d.Aborts[r] -= before.Aborts[r]
		}
		return d
	}
}

// TestCanceledIsNotAnAbortedAttempt pins the cancellation accounting: a
// body that aborts twice and cancels during its second attempt rolled back
// two attempts, so Aborts() is 2 — cancellation itself is classified once,
// in the Canceled column, and never by a third Rollback on clean state.
func TestCanceledIsNotAnAbortedAttempt(t *testing.T) {
	delta := meterDelta(t, "cm-test-cancel")
	c := NewCore("cm-test-cancel")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	attempts, rollbacks := 0, 0
	var stats abort.Stats
	err := runFn(c, ctx, &stats, fnTx{
		run: func() {
			attempts++
			if attempts == 2 {
				cancel()
			}
			abort.Retry(abort.Conflict)
		},
		rollback: func(r abort.Reason) {
			if r != abort.Conflict {
				t.Errorf("Rollback(%v), want only Conflict", r)
			}
			rollbacks++
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if attempts != 2 || rollbacks != 2 {
		t.Fatalf("attempts=%d rollbacks=%d, want 2 and 2", attempts, rollbacks)
	}
	if c.Aborts() != 2 || stats.Aborts != 2 || c.Commits() != 0 {
		t.Fatalf("Aborts()=%d stats=%+v Commits()=%d, want 2 aborted attempts and no commit", c.Aborts(), stats, c.Commits())
	}
	d := delta()
	if d.Aborts[abort.Conflict] != 2 || d.Canceled() != 1 || d.TotalAborts() != 3 {
		t.Fatalf("meter: conflict=%d canceled=%d total=%d, want 2, 1, 3", d.Aborts[abort.Conflict], d.Canceled(), d.TotalAborts())
	}
}

// TestCancellationCheckPoints covers each place the loop looks at the
// context: before the first attempt, parked at the serial gate, and after an
// abort while escalated (where the gate must be reopened on the way out).
func TestCancellationCheckPoints(t *testing.T) {
	t.Run("before-first-attempt", func(t *testing.T) {
		c := NewCore("cm-test")
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ran := false
		err := runFn(c, ctx, nil, fnTx{begin: func() { ran = true }})
		if !errors.Is(err, context.Canceled) || ran {
			t.Fatalf("err=%v ran=%v, want context.Canceled before Begin", err, ran)
		}
	})
	t.Run("parked-at-gate", func(t *testing.T) {
		c := NewCore("cm-test")
		c.Manager().Escalate()
		defer c.Manager().Release()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		ran := false
		err := runFn(c, ctx, nil, fnTx{begin: func() { ran = true }})
		if !errors.Is(err, context.DeadlineExceeded) || ran {
			t.Fatalf("err=%v ran=%v, want DeadlineExceeded while parked", err, ran)
		}
	})
	t.Run("escalated", func(t *testing.T) {
		c := NewCore("cm-test")
		c.SetManager(New(Aggressive, 2))
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		attempts := 0
		err := runFn(c, ctx, nil, fnTx{run: func() {
			attempts++
			if attempts == 4 {
				if !SerialActive() {
					t.Error("attempt past the budget ran without the serial gate")
				}
				cancel()
			}
			abort.Retry(abort.Conflict)
		}})
		if !errors.Is(err, context.Canceled) || attempts != 4 {
			t.Fatalf("err=%v attempts=%d, want context.Canceled after 4", err, attempts)
		}
		if SerialActive() {
			t.Fatal("a cancelled escalated transaction left the serial gate closed")
		}
	})
}

// TestEscalatedPanicReopensGate: a foreign panic in an escalated attempt is
// rolled back once with Panicked, reopens the gate, and reaches the caller.
func TestEscalatedPanicReopensGate(t *testing.T) {
	c := NewCore("cm-test")
	c.SetManager(New(Aggressive, 1))
	boom := errors.New("boom")
	var reasons []abort.Reason
	attempts := 0
	func() {
		defer func() {
			if p := recover(); p != boom {
				t.Fatalf("recovered %v, want the foreign panic", p)
			}
		}()
		runFn(c, context.Background(), nil, fnTx{
			run: func() {
				attempts++
				if attempts == 1 {
					abort.Retry(abort.Conflict)
				}
				if !SerialActive() {
					t.Error("second attempt should run escalated")
				}
				panic(boom)
			},
			rollback: func(r abort.Reason) { reasons = append(reasons, r) },
		})
	}()
	if len(reasons) != 2 || reasons[0] != abort.Conflict || reasons[1] != abort.Panicked {
		t.Fatalf("rollback reasons = %v, want [conflict panicked]", reasons)
	}
	if SerialActive() {
		t.Fatal("a panicking escalated transaction left the serial gate closed")
	}
	if c.Aborts() != 2 {
		t.Fatalf("Aborts() = %d, want 2", c.Aborts())
	}
}

// TestTakeObservesContext: with the free list empty, Take returns the
// context's error (recorded as Canceled) instead of waiting for a stranger.
func TestTakeObservesContext(t *testing.T) {
	delta := meterDelta(t, "cm-test-take")
	c := NewCore("cm-test-take")
	free := make(chan int, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := Take(ctx, c, free); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Take on an empty list = %v, want DeadlineExceeded", err)
	}
	if d := delta(); d.Canceled() != 1 {
		t.Fatalf("Canceled = %d, want 1", d.Canceled())
	}
	free <- 7
	if v, err := Take(nil, c, free); v != 7 || err != nil {
		t.Fatalf("Take(nil ctx) = %d, %v, want 7, nil", v, err)
	}
}

// BenchmarkDisarmedRun is the per-transaction tax of the whole lifecycle with
// telemetry and the flight recorder off (the default): one Run of an empty
// descriptor passes every stamp site the runner owns — span open/close,
// latency and commit-phase stamps, attempt and commit brackets, the outcome
// counter — plus the gate check and the recover frame. The bar carried over
// from the per-package DisabledRecord benches is < 2 ns per site; with eight
// sites that is ~16 ns on top of the loop itself, and 0 allocs/op.
func BenchmarkDisarmedRun(b *testing.B) {
	h, noop := NewCore("cm-bench").NewHandle(), &fnTx{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Run(nil, nil, noop)
	}
}

// TestRunAllocFree: the loop itself adds no allocation to a transaction, so
// a runtime whose descriptor is pooled runs allocation-free end to end.
func TestRunAllocFree(t *testing.T) {
	h, noop := NewCore("cm-test").NewHandle(), &fnTx{}
	if allocs := testing.AllocsPerRun(1000, func() { h.Run(nil, nil, noop) }); allocs > 0 {
		t.Fatalf("%.2f allocs per Run, want 0", allocs)
	}
}
