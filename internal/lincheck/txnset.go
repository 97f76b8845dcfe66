package lincheck

import (
	"sync"
	"testing"

	"repro/internal/chaos"
)

// RecordedTxnSet mirrors transactional set operations into a TxnRecorder as
// operations of the current attempt. Operations that abort mid-call
// (unwinding through a panic) record nothing: only responses the body
// actually observed enter the history.
type RecordedTxnSet struct {
	S      Set
	R      *TxnRecorder
	Thread int
}

func (r RecordedTxnSet) Add(k int64) bool {
	ok := r.S.Add(k)
	r.R.Op(r.Thread, Op{Kind: Add, Key: k, Ok: ok})
	return ok
}

func (r RecordedTxnSet) Remove(k int64) bool {
	ok := r.S.Remove(k)
	r.R.Op(r.Thread, Op{Kind: Remove, Key: k, Ok: ok})
	return ok
}

func (r RecordedTxnSet) Contains(k int64) bool {
	ok := r.S.Contains(k)
	r.R.Op(r.Thread, Op{Kind: Contains, Key: k, Ok: ok})
	return ok
}

// RunTxnSet drives multi-operation set transactions through an arbitrary
// transactional runner and checks the recorded history for opacity against
// the set specification. atomic must execute body transactionally —
// invoking it once per attempt with that attempt's transactional set view —
// and return once the transaction has committed; RunTxnSet handles all
// attempt bookkeeping around it. Cells doubles as the key range.
func RunTxnSet(cfg STMConfig, atomic func(thread int, body func(Set))) (Result, []Txn) {
	return runTxnSet(cfg, atomic, nil)
}

// StressTxnSet runs RunTxnSet and fails t on an opacity violation.
func StressTxnSet(t testing.TB, cfg STMConfig, atomic func(thread int, body func(Set))) {
	t.Helper()
	StressTxnSetRO(t, cfg, atomic, nil)
}

// StressTxnSetRO is StressTxnSet for runtimes with a dedicated
// snapshot-reader path: even threads run the usual mixed transactions
// through atomic, odd threads run Contains-only transactions through
// atomicRO (the runtime's read-only entry point, e.g. a multi-version
// snapshot transaction). Both populations record into one transactional
// history, so the opacity check proves the snapshot path serializes against
// updater commits — a reader observing a half-applied or future state shows
// up as a violation. atomicRO must execute body exactly like atomic does
// per attempt; for never-abort snapshot runtimes that is a single attempt.
func StressTxnSetRO(t testing.TB, cfg STMConfig, atomic, atomicRO func(thread int, body func(Set))) {
	t.Helper()
	cfg.Seed = seedOverride(t, cfg.Seed)
	res, txns := runTxnSet(cfg, atomic, atomicRO)
	report(t, cfg.Name, cfg.Seed, res, nil, txns)
}

// runTxnSet is the one transactional-set driver. A nil atomicRO runs every
// thread mixed; otherwise odd threads run Contains-only transactions through
// it. A thread draws the same keys and op choices either way.
func runTxnSet(cfg STMConfig, atomic, atomicRO func(thread int, body func(Set))) (Result, []Txn) {
	rec := NewTxnRecorder(cfg.Threads)
	var wg sync.WaitGroup
	for th := 0; th < cfg.Threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			rng := newPRNG(cfg.Seed + int64(th)*7919)
			j := chaos.NewJitter(cfg.Seed^int64(th), cfg.JitterPermille)
			readOnly := atomicRO != nil && th%2 == 1
			for i := 0; i < cfg.Txns; i++ {
				opened := false // attempt already begun by the driver, below
				body := func(view Set) {
					if !opened {
						rec.BeginAttempt(th)
					}
					opened = false
					rs := RecordedTxnSet{S: view, R: rec, Thread: th}
					for o := 0; o < cfg.OpsPerTx; o++ {
						key := rng.intn(int64(cfg.Cells))
						j.Point()
						switch p := rng.intn(100); {
						case readOnly:
							rs.Contains(key)
						case p < int64(cfg.WritePct)/2:
							rs.Add(key)
						case p < int64(cfg.WritePct):
							rs.Remove(key)
						default:
							rs.Contains(key)
						}
					}
				}
				if readOnly {
					// A snapshot transaction takes effect at the pin its runtime
					// performs before it calls body. Its first attempt must begin
					// before that: stamped inside body, an updater committing
					// between pin and body would precede, in real time, a reader
					// that rightly cannot see it.
					rec.BeginAttempt(th)
					opened = true
					atomicRO(th, body)
				} else {
					atomic(th, body)
				}
				rec.Commit(th)
			}
		}(th)
	}
	wg.Wait()
	txns := rec.History()
	return CheckOpacityBudget(SetTxnSpec(), txns, cfg.budget()), txns
}
