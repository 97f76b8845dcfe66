// Package cm is the contention-management layer shared by every
// transactional runtime in the repository (OTB, the STM algorithms,
// pessimistic boosting, the integration contexts, RTC, RInval and the
// hybrid HTM).
//
// The OTB paper assumes a contention manager exists but never builds one;
// this package supplies the three pieces the rest of the system needs:
//
//  1. Pluggable retry pacing (Policy): how long an aborted transaction
//     waits before its next optimistic attempt. Four policies are provided —
//     the historical yielding exponential backoff (default), Polite, Karma
//     and Aggressive — all registered by name for the cmd binaries' -cm
//     flag and the adaptive tuner.
//  2. A per-transaction retry budget: the number of consecutive aborted
//     attempts after which optimism is declared lost.
//  3. Serial-mode escalation: a transaction over budget acquires the
//     process-wide serial gate and re-runs with every other transaction's
//     *new* attempts blocked at the gate (HTM lock-subscription style,
//     the same discipline as the glock baseline's single mutex). Attempts
//     already in flight finish at most once more, so the escalated
//     transaction competes with a strictly draining set and commits after
//     a bounded number of retries — no workload can livelock the system.
//
// The fast path is one relaxed atomic load per optimistic attempt (the
// serial-gate check); everything else runs only after an abort.
//
// The package also owns the transaction lifecycle itself (run.go): a runtime
// embeds a Core, its pooled descriptors hold a Handle and implement Tx, and
// Handle.Run is the one retry loop — serial-gate pause, context checks,
// rollback and re-panic, pacing, escalation and every lifecycle stamp.
// Runtimes default to the shared Default manager and accept a custom one
// through Core.SetManager.
package cm

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/abort"
	"repro/internal/spin"
)

// DefaultBudget is the retry budget managers start with: consecutive
// aborted attempts before serial-mode escalation. It is high enough that
// ordinary contention (which exponential backoff resolves within a handful
// of retries) never escalates, and low enough that a starving transaction
// reaches the guaranteed-progress path in well under a millisecond of
// thrashing.
const DefaultBudget = 64

// serialGate is the process-wide serial-mode gate. It is deliberately
// global rather than per-Manager: transactions from different runtimes can
// share data structures (the integration contexts drive OTB structures
// under an STM), so the progress guarantee must hold across all of them.
//
// Discipline (glock-style, with HTM lock subscription for the fast path):
// the escalated transaction owns mu; active is the subscription flag every
// optimistic attempt checks before starting. In-flight attempts are not
// tracked — they finish their current attempt and then block in Pause — so
// closing the gate is wait-free for the escalating transaction.
var serialGate struct {
	mu     sync.Mutex   // owned by the escalated transaction
	active atomic.Int32 // nonzero while an escalated transaction runs
}

// SerialActive reports whether an escalated transaction currently holds the
// serial gate (exported for tests and monitoring).
func SerialActive() bool { return serialGate.active.Load() != 0 }

// Manager pairs a Policy with a retry budget and the serial-mode gate.
// Managers are shared by many goroutines — one typically serves every
// transaction of a runtime instance — so all methods are safe for concurrent
// use; per-transaction pacing state (the consecutive-abort count) is carried
// by the retry loop and passed in. The zero value is not usable; call New.
type Manager struct {
	policy      atomic.Pointer[Policy]
	budget      atomic.Int64
	escalations atomic.Uint64
}

// New creates a Manager with the given policy and retry budget. A nil
// policy means Backoff; budget <= 0 disables escalation (unbounded
// optimistic retries, the pre-contention-management behaviour).
func New(p Policy, budget int) *Manager {
	m := &Manager{}
	if p == nil {
		p = Backoff
	}
	m.policy.Store(&p)
	m.budget.Store(int64(budget))
	return m
}

// Policy returns the manager's current policy.
func (m *Manager) Policy() Policy { return *m.policy.Load() }

// SetPolicy swaps the pacing policy; safe during live traffic (the
// adaptive tuner retunes policies from observed abort rates).
func (m *Manager) SetPolicy(p Policy) {
	if p == nil {
		p = Backoff
	}
	m.policy.Store(&p)
}

// Budget returns the retry budget (<= 0 means escalation disabled).
func (m *Manager) Budget() int { return int(m.budget.Load()) }

// SetBudget changes the retry budget; safe during live traffic.
func (m *Manager) SetBudget(n int) { m.budget.Store(int64(n)) }

// Escalations reports how many transactions this manager escalated to
// serial mode.
func (m *Manager) Escalations() uint64 { return m.escalations.Load() }

// PauseCtx blocks while an escalated transaction runs serially; it is called
// before every optimistic attempt, so the fast path — no escalation anywhere
// — is a single relaxed load and a predictable branch. It gives up with the
// context's error when ctx (nil never cancels) is cancelled while parked at
// the gate, so an abandoned transaction does not wait out an escalated one.
func (m *Manager) PauseCtx(ctx context.Context) error {
	if serialGate.active.Load() == 0 {
		return nil
	}
	var b spin.Backoff
	for serialGate.active.Load() != 0 {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		b.Wait()
	}
	return nil
}

// OnAbort is called after the n-th consecutive aborted attempt (n >= 1) of
// one transaction: it paces the retry per the current policy and reports
// whether the budget is exhausted and the transaction must escalate.
func (m *Manager) OnAbort(n int, r abort.Reason) (escalate bool) {
	if budget := m.budget.Load(); budget > 0 && int64(n) >= budget {
		return true
	}
	m.Policy().Wait(n, r)
	return false
}

// Escalate acquires the process-wide serial gate: it blocks until this
// transaction is the only escalated one, then stops new optimistic attempts
// from starting (they block in PauseCtx) until Release. Later escalations
// queue on the gate's mutex.
func (m *Manager) Escalate() {
	serialGate.mu.Lock()
	serialGate.active.Store(1)
	m.escalations.Add(1)
}

// Release reopens the gate when the escalated transaction leaves the retry
// loop (commit, cancellation or foreign panic).
func (m *Manager) Release() {
	serialGate.active.Store(0)
	serialGate.mu.Unlock()
}

// defaultMgr is the process-wide manager runtimes fall back to when no
// explicit one is configured. Its policy and budget are retuned in place by
// Configure (the cmd binaries' -cm flag), so runtimes constructed before or
// after the flag is applied behave identically.
var defaultMgr = New(Backoff, DefaultBudget)

// Default returns the shared default manager (Backoff policy,
// DefaultBudget, unless reconfigured via Configure).
func Default() *Manager { return defaultMgr }

// Or returns m, or the shared default manager when m is nil.
func Or(m *Manager) *Manager {
	if m != nil {
		return m
	}
	return defaultMgr
}

// Configure retunes the shared default manager: policy by registry name
// ("" keeps the current policy) and retry budget (0 keeps the current
// budget; negative disables escalation). It backs the -cm and -cm-budget
// flags of cmd/stmbench and cmd/reproduce.
func Configure(policy string, budget int) error {
	if policy != "" {
		p, ok := Lookup(policy)
		if !ok {
			return fmt.Errorf("cm: unknown policy %q (have %v)", policy, Names())
		}
		defaultMgr.SetPolicy(p)
	}
	if budget != 0 {
		defaultMgr.SetBudget(budget)
	}
	return nil
}
