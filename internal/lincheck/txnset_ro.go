package lincheck

import (
	"sync"
	"testing"

	"repro/internal/chaos"
)

// RunTxnSetRO drives a read-mostly split workload for runtimes with a
// dedicated snapshot-reader path: even threads run the usual mixed
// transactions through atomic, odd threads run Contains-only transactions
// through atomicRO (the runtime's read-only entry point, e.g. a
// multi-version snapshot transaction). Both populations record into one
// transactional history, so the opacity check proves the snapshot path
// serializes against updater commits — a reader observing a half-applied or
// future state shows up as a violation. atomicRO must execute body exactly
// like atomic does per attempt; for never-abort snapshot runtimes that is
// a single attempt.
func RunTxnSetRO(cfg STMConfig, atomic func(thread int, body func(Set)), atomicRO func(thread int, body func(Set))) (Result, []Txn) {
	rec := NewTxnRecorder(cfg.Threads)
	var wg sync.WaitGroup
	for th := 0; th < cfg.Threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			rng := newPRNG(cfg.Seed + int64(th)*7919)
			j := chaos.NewJitter(cfg.Seed^int64(th), cfg.JitterPermille)
			readOnly := th%2 == 1
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

// StressTxnSetRO runs RunTxnSetRO and fails t on an opacity violation.
func StressTxnSetRO(t testing.TB, cfg STMConfig, atomic func(thread int, body func(Set)), atomicRO func(thread int, body func(Set))) {
	t.Helper()
	cfg.Seed = seedOverride(t, cfg.Seed)
	res, txns := RunTxnSetRO(cfg, atomic, atomicRO)
	report(t, cfg.Name, cfg.Seed, res, nil, txns)
}
