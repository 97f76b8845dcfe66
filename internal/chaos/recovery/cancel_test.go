package recovery

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/abort"
	"repro/internal/chaos/failpoint"
	"repro/internal/cm"
	"repro/internal/mem"
	"repro/internal/otb"
	"repro/internal/rinval"
	"repro/internal/rtc"
	"repro/internal/stm"
	"repro/internal/stm/invalstm"
	"repro/internal/stm/norec"
	"repro/internal/telemetry"
)

// TestCanceledBeforeFirstAttempt: an already-cancelled context returns
// before the body ever runs, for both OTB and NOrec.
func TestCanceledBeforeFirstAttempt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	ran := false
	if err := otb.AtomicCtx(ctx, nil, func(tx *otb.Tx) { ran = true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("otb: err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("otb: body ran despite pre-cancelled context")
	}

	s := norec.New()
	defer s.Stop()
	if err := s.AtomicCtx(ctx, func(tx stm.Tx) { ran = true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("norec: err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("norec: body ran despite pre-cancelled context")
	}

	// The runtimes stay usable after the refusal.
	set := otb.NewListSet()
	otb.Atomic(nil, func(tx *otb.Tx) { set.Add(tx, 1) })
	cell := mem.NewCell(0)
	s.Atomic(func(tx stm.Tx) { tx.Write(cell, 7) })
	if cell.Load() != 7 {
		t.Fatalf("cell = %d, want 7", cell.Load())
	}
}

// TestCanceledMidRetryOTB cancels during the abort/backoff loop: the third
// attempt cancels the context and aborts; the loop must observe the
// cancellation instead of retrying a fourth time.
func TestCanceledMidRetryOTB(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	attempts := 0
	err := otb.AtomicCtx(ctx, nil, func(tx *otb.Tx) {
		attempts++
		if attempts == 3 {
			cancel()
		}
		abort.Retry(abort.Conflict)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (no retry after cancellation)", attempts)
	}
}

// TestCanceledMidValidationOTB keeps every attempt dying inside semantic
// validation (an armed forced-abort failpoint); cancelling mid-stream must
// end the loop at the next check.
func TestCanceledMidValidationOTB(t *testing.T) {
	defer failpoint.Arm("otb.validate.mid", failpoint.Spec{Action: failpoint.Abort})()
	set := otb.NewListSet()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	attempts := 0
	err := otb.AtomicCtx(ctx, nil, func(tx *otb.Tx) {
		attempts++
		if attempts == 2 {
			cancel()
		}
		set.Contains(tx, 1)
		set.Add(tx, 2)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	failpoint.Disarm("otb.validate.mid")
	otb.Atomic(nil, func(tx *otb.Tx) { set.Add(tx, 3) }) // still usable
}

// TestCanceledMidCommitNOrec is the NOrec counterpart: every attempt is
// forced to abort with the writer lock held, and cancellation must win over
// the retry loop with the lock fully released.
func TestCanceledMidCommitNOrec(t *testing.T) {
	defer failpoint.Arm("norec.commit.locked", failpoint.Spec{Action: failpoint.Abort})()
	s := norec.New()
	defer s.Stop()
	cell := mem.NewCell(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	attempts := 0
	err := s.AtomicCtx(ctx, func(tx stm.Tx) {
		attempts++
		if attempts == 2 {
			cancel()
		}
		tx.Write(cell, uint64(attempts))
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	failpoint.Disarm("norec.commit.locked")
	// The abandoned attempts restored the clock: a fresh write commits.
	s.Atomic(func(tx stm.Tx) { tx.Write(cell, 9) })
	if cell.Load() != 9 {
		t.Fatalf("cell = %d, want 9", cell.Load())
	}
}

// TestDeadlineExpiresMidRetry drives a permanently-conflicting transaction
// against a deadline: the loop must give up with DeadlineExceeded — even if
// the retry budget escalated it to serial mode meanwhile, the gate must be
// reopened on the way out.
func TestDeadlineExpiresMidRetry(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := otb.AtomicCtx(ctx, nil, func(tx *otb.Tx) {
		abort.Retry(abort.Conflict)
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if cm.SerialActive() {
		t.Fatal("serial gate still closed after a cancelled escalated transaction")
	}
}

// TestCanceledIsNotAnAbortedAttempt: a NOrec body that aborts twice and
// cancels during its second attempt rolled back two attempts, so Aborts()
// reads 2 — the cancellation is classified once, in the meter's Canceled
// column, not as a third aborted attempt.
func TestCanceledIsNotAnAbortedAttempt(t *testing.T) {
	was := telemetry.Default.Enabled()
	telemetry.Enable()
	defer telemetry.Default.SetEnabled(was)
	s := norec.New()
	defer s.Stop()
	before := telemetry.M("NOrec").Snapshot()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	attempts := 0
	err := s.AtomicCtx(ctx, func(tx stm.Tx) {
		attempts++
		if attempts == 2 {
			cancel()
		}
		abort.Retry(abort.Conflict)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if attempts != 2 || s.Aborts() != 2 || s.Commits() != 0 {
		t.Fatalf("attempts=%d Aborts()=%d Commits()=%d, want 2, 2, 0", attempts, s.Aborts(), s.Commits())
	}
	after := telemetry.M("NOrec").Snapshot()
	if c, total := after.Canceled()-before.Canceled(), after.TotalAborts()-before.TotalAborts(); c != 1 || total != 3 {
		t.Fatalf("meter: canceled +%d, total aborts +%d, want +1 and +3", c, total)
	}
}

// TestSlotAcquisitionObservesContext: with every client slot (RTC, RInval)
// or registry slot (InvalSTM) held by a transaction parked inside its body,
// a caller whose deadline passes gets DeadlineExceeded instead of waiting
// for a stranger's transaction to finish; once the slots free up the
// instance commits as before.
func TestSlotAcquisitionObservesContext(t *testing.T) {
	cases := []struct {
		name  string
		slots int
		mk    func(slots int) stm.AlgorithmCtx
	}{
		{"rtc", 2, func(n int) stm.AlgorithmCtx { return rtc.New(rtc.Options{Clients: n}) }},
		{"rinval", 2, func(n int) stm.AlgorithmCtx { return rinval.NewWithClients(rinval.V1, n) }},
		{"invalstm", invalstm.MaxTxs, func(int) stm.AlgorithmCtx { return invalstm.New() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			alg := tc.mk(tc.slots)
			defer alg.Stop()
			parked := make(chan struct{}, tc.slots)
			release := make(chan struct{})
			holders := make(chan struct{})
			for i := 0; i < tc.slots; i++ {
				go func() {
					alg.Atomic(func(stm.Tx) {
						parked <- struct{}{}
						<-release
					})
					holders <- struct{}{}
				}()
			}
			for i := 0; i < tc.slots; i++ {
				<-parked
			}

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			got := make(chan error, 1)
			go func() { got <- alg.AtomicCtx(ctx, func(stm.Tx) {}) }()
			select {
			case err := <-got:
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("AtomicCtx with every slot busy = %v, want DeadlineExceeded", err)
				}
			case <-time.After(2 * time.Second):
				t.Error("AtomicCtx ignored its deadline while waiting for a slot")
			}

			close(release)
			for i := 0; i < tc.slots; i++ {
				<-holders
			}
			cell := mem.NewCell(0)
			alg.Atomic(func(tx stm.Tx) { tx.Write(cell, 5) })
			if cell.Load() != 5 {
				t.Fatalf("cell = %d after the slots freed up, want 5", cell.Load())
			}
		})
	}
}
