// Package abort defines the transaction-abort vocabulary shared by every
// transactional layer (STM algorithms, OTB, boosting, the integration
// framework): an abort unwinds the user function with a private panic value
// (Signal) that the retry loop — cm.Handle.Run, the only one — recovers,
// rolls back, and retries with backoff.
//
// This mirrors DEUCE's exception-driven retry: user code inside an atomic
// block simply calls the transactional API and never observes the panic.
//
// Two outcomes beyond ordinary conflicts have reasons of their own: a
// foreign panic (Panicked) and a cancelled context (Canceled); see the
// runner for how each is handled.
package abort

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
	// LockBusy means a required lock could not be acquired at commit, or
	// that a validation found a lock another transaction held on something
	// the read set depends on (that transaction is committing, so the entry
	// may be about to change; the semantic check itself did not fail).
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
