// Package abort implements the transaction-abort protocol shared by every
// transactional layer (STM algorithms, OTB, boosting, the integration
// framework): an abort unwinds the user function with a private panic value
// that the retry loop recovers, rolls back, and retries with backoff.
//
// This mirrors DEUCE's exception-driven retry: user code inside an atomic
// block simply calls the transactional API and never observes the panic.
//
// Two failure modes beyond ordinary conflicts are handled here so every
// runtime inherits them uniformly:
//
//   - Foreign panics. A panic that is not an abort Signal (a user callback
//     blowing up, a runtime error, an armed failpoint) unwinds the attempt
//     through the same rollback path with the Panicked reason — locks are
//     released, logs discarded, the serial gate reopened — and is then
//     re-raised to the caller.
//   - Cancellation. RunPolicyCtx observes a context at every retry-loop top
//     and inside the contention manager's serial-gate wait; a cancelled
//     transaction rolls back with the Canceled reason and returns the
//     context's error instead of committing.
package abort

import (
	"context"

	"repro/internal/spin"
)

// Signal is the panic value used to unwind an aborted transaction.
// Its Reason is reported by statistics hooks.
type Signal struct {
	// Reason classifies the conflict that caused the abort.
	Reason Reason
}

// Reason classifies why a transaction aborted.
type Reason int

// Abort reasons, in the order they are typically detected.
const (
	// Conflict is a read-set (memory or semantic) validation failure.
	Conflict Reason = iota
	// LockBusy means a required lock could not be acquired at commit.
	LockBusy
	// Invalidated means a committing transaction explicitly doomed this one
	// (InvalSTM / RInval).
	Invalidated
	// Explicit is a user-requested retry.
	Explicit
	// Timeout means a bounded lock-acquisition spin was exhausted
	// (pessimistic boosting's deadlock-avoidance timeout).
	Timeout
	// Canceled means the transaction's context was cancelled or its
	// deadline expired; the retry loop gave up instead of retrying.
	Canceled
	// Panicked means a non-transactional panic (user callback, runtime
	// error, armed failpoint) unwound the attempt. The rollback path runs
	// as for any abort, then the panic is re-raised to the caller — the
	// transaction is not retried.
	Panicked

	// NumReasons is the number of distinct abort reasons; statistics
	// layers (package telemetry) size per-reason counter arrays with it.
	NumReasons
)

// String returns the human-readable name of the reason.
func (r Reason) String() string {
	switch r {
	case Conflict:
		return "conflict"
	case LockBusy:
		return "lock-busy"
	case Invalidated:
		return "invalidated"
	case Explicit:
		return "explicit"
	case Timeout:
		return "timeout"
	case Canceled:
		return "canceled"
	case Panicked:
		return "panicked"
	default:
		return "unknown"
	}
}

// signals holds one pre-boxed Signal per reason so Retry does not allocate
// on the abort path (interface conversion of a struct value otherwise heap-
// allocates per panic).
var signals [NumReasons]any

func init() {
	for r := Conflict; r < NumReasons; r++ {
		signals[r] = Signal{Reason: r}
	}
}

// Retry aborts the current transaction with the given reason. It never
// returns; the enclosing retry loop recovers it.
func Retry(r Reason) {
	if r >= 0 && r < NumReasons {
		panic(signals[r])
	}
	panic(Signal{Reason: r})
}

// Stats counts the outcomes of a retry loop.
type Stats struct {
	Commits uint64
	Aborts  uint64
}

// Manager is the contention-management hook RunPolicyCtx consults around each
// attempt. The canonical implementation is *cm.Manager (package
// internal/cm); the indirection keeps this package free of a dependency on
// the policy layer.
//
// A Manager is shared by many goroutines; all methods must be safe for
// concurrent use. Per-transaction pacing state (the consecutive-abort count)
// is carried by the retry loop and passed in, so implementations stay
// stateless per call.
type Manager interface {
	// Pause blocks while an escalated transaction elsewhere runs in serial
	// mode. It is called before every optimistic attempt, so the
	// no-escalation fast path must be near-free (one atomic load).
	Pause()
	// OnAbort is called after the n-th consecutive aborted attempt (n >= 1)
	// of one transaction, with the abort's reason. It waits according to the
	// policy and reports whether the transaction has exhausted its retry
	// budget and must escalate to serial mode before the next attempt.
	OnAbort(n int, r Reason) (escalate bool)
	// Escalate acquires the process-wide serial-mode gate: it blocks until
	// this transaction is the only escalated one, then stops new optimistic
	// attempts from starting (they block in Pause) until Release.
	Escalate()
	// Release releases the serial-mode gate after the escalated transaction
	// commits.
	Release()
}

// CtxPauser is implemented by managers whose serial-gate wait can observe a
// context (cm.Manager). RunPolicyCtx uses it so a transaction cancelled
// while parked at the gate returns promptly instead of waiting out the
// escalated transaction.
type CtxPauser interface {
	// PauseCtx is Manager.Pause returning early with the context's error
	// when ctx is cancelled during the wait.
	PauseCtx(ctx context.Context) error
}

// RunPolicyCtx executes attempt repeatedly until it completes without
// aborting, under a pluggable contention manager.
//
// Before each attempt it calls begin; after an abort it calls rollback with
// the signal's reason, paces the retry, and tries again. Stats, if non-nil,
// is updated by the calling goroutine only. A nil Manager gives the default
// yielding exponential backoff and never escalates.
//
// With a Manager, every optimistic attempt first passes the serial-mode
// gate (Manager.Pause); after each abort the manager paces the retry and
// decides whether the per-transaction retry budget is exhausted. When it
// is, the transaction acquires the process-wide serial gate and retries
// without policy waits until it commits — new optimistic attempts
// everywhere block at the gate meanwhile, so the escalated transaction
// competes only with attempts already in flight and commits after a
// bounded number of retries. RunPolicyCtx reports whether the transaction
// escalated, so callers can record it (telemetry's Escalated counter).
//
// Cancellation of ctx (or deadline expiry) is checked before every attempt,
// after every abort, and inside the serial-gate wait of managers
// implementing CtxPauser. On cancellation the loop calls rollback with the
// Canceled reason (attempt state was already rolled back, so this only
// classifies the outcome and lets runtimes record it), releases the serial
// gate if this transaction held it, and returns the context's error; the
// transaction did not commit. A nil ctx never cancels.
//
// Foreign panics (anything that is not an abort Signal) unwind through the
// rollback path with the Panicked reason — releasing locks, logs, and the
// serial gate — and are then re-raised to the caller.
func RunPolicyCtx(ctx context.Context, stats *Stats, m Manager, begin func(), attempt func(), rollback func(Reason)) (escalated bool, err error) {
	t := funcRunner{begin: begin, attempt: attempt, rollback: rollback}
	return RunPolicyTxCtx(ctx, stats, m, &t)
}

// funcRunner adapts the closure-based RunPolicyCtx API to TxRunner.
type funcRunner struct {
	begin    func()
	attempt  func()
	rollback func(Reason)
}

func (f *funcRunner) Begin()            { f.begin() }
func (f *funcRunner) Attempt()          { f.attempt() }
func (f *funcRunner) Rollback(r Reason) { f.rollback(r) }

// TxRunner is implemented by transaction descriptors that drive the retry
// loop through methods instead of closures. Pooled descriptors implementing
// TxRunner let RunPolicyTxCtx execute a whole transaction without a single
// heap allocation — the closure-based RunPolicyCtx API costs one adapter
// allocation per call plus whatever the captured closures escape.
//
// The loop calls Begin before each attempt, Attempt to run the body and
// commit, and Rollback exactly once per failed attempt (including
// cancellation and foreign panics), with the same semantics as the
// begin/attempt/rollback closures of RunPolicyCtx.
type TxRunner interface {
	Begin()
	Attempt()
	Rollback(Reason)
}

// RunPolicyTxCtx is RunPolicyCtx driving a TxRunner descriptor. It is the
// allocation-free core the closure API wraps.
func RunPolicyTxCtx(ctx context.Context, stats *Stats, m Manager, t TxRunner) (escalated bool, err error) {
	var b spin.Backoff
	n := 0
	defer func() {
		// A foreign panic has already been rolled back by runOnce; make sure
		// an escalated transaction reopens the gate on its way out so the
		// process stays usable, then let the panic continue to the caller.
		if p := recover(); p != nil {
			if escalated {
				m.Release()
			}
			panic(p)
		}
	}()
	for {
		if ctx != nil {
			if e := ctx.Err(); e != nil {
				return cancelTx(t, m, escalated, e)
			}
		}
		if m != nil && !escalated {
			if pc, ok := m.(CtxPauser); ok && ctx != nil {
				if e := pc.PauseCtx(ctx); e != nil {
					return cancelTx(t, m, escalated, e)
				}
			} else {
				m.Pause()
			}
		}
		done, r := runOnce(t)
		if done {
			if stats != nil {
				stats.Commits++
			}
			if escalated {
				m.Release()
			}
			return escalated, nil
		}
		if stats != nil {
			stats.Aborts++
		}
		n++
		// Mid-backoff cancellation: check both before pacing (covers a
		// context that expired during the aborted attempt, e.g. while it was
		// validating) and at the next loop top (covers expiry during the
		// policy wait itself — policy waits are bounded at microseconds).
		if ctx != nil {
			if e := ctx.Err(); e != nil {
				return cancelTx(t, m, escalated, e)
			}
		}
		switch {
		case m == nil:
			b.Wait()
		case escalated:
			// Already serial: retry immediately, but still yield so attempts
			// that were in flight when the gate closed can finish (mandatory
			// when GOMAXPROCS=1).
			b.Wait()
		case m.OnAbort(n, r):
			m.Escalate()
			escalated = true
			b.Reset()
		}
	}
}

// cancelTx classifies a cancelled transaction's outcome and reopens the
// serial gate if this transaction held it.
func cancelTx(t TxRunner, m Manager, escalated bool, e error) (bool, error) {
	t.Rollback(Canceled)
	if escalated {
		m.Release()
	}
	return escalated, e
}

// runOnce runs one attempt, converting an abort Signal into a false return
// carrying the signal's reason. Any other panic runs the same rollback with
// the Panicked reason — the attempt may have been holding locks when it blew
// up, and the rollback path is the one place that knows how to release them
// — and is then re-raised.
func runOnce(t TxRunner) (committed bool, reason Reason) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if sig, ok := p.(Signal); ok {
			t.Rollback(sig.Reason)
			committed, reason = false, sig.Reason
			return
		}
		t.Rollback(Panicked)
		panic(p)
	}()
	t.Begin()
	t.Attempt()
	return true, 0
}
