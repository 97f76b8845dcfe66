package mvotb

import (
	"testing"
	"time"

	"repro/internal/lincheck"
	"repro/internal/otb"
)

// runSnapshotSchedule drives one fixed interleaving that only a correct
// snapshot rule serializes: a reader pins its snapshot and observes key A,
// then — with the reader still open — a writer commits {remove A, add B}
// atomically, then the reader observes B. A correct multi-version runtime
// answers (A=true, B=false): the reader's whole view is its begin-time
// state. The broken mutant resolves reads against the newest version and
// answers (A=true, B=true) — a state that never existed, which the opacity
// checker must reject (before the writer B was absent; after it A was).
func runSnapshotSchedule(t *testing.T) lincheck.Result {
	t.Helper()
	rt := New(Options{GCInterval: time.Hour})
	defer rt.Stop()
	s := rt.NewSet(8)
	const keyA, keyB = 1, 2

	rec := lincheck.NewTxnRecorder(2)
	// Setup (thread 0): A present before anything else.
	rec.BeginAttempt(0)
	otb.Atomic(nil, func(tx *otb.Tx) {
		ok := s.Add(tx, keyA)
		rec.Op(0, lincheck.Op{Kind: lincheck.Add, Key: keyA, Ok: ok})
	})
	rec.Commit(0)

	// Reader (thread 1) brackets the writer's commit.
	rt.ReadOnly(func(x *STx) {
		rec.BeginAttempt(1)
		rec.Op(1, lincheck.Op{Kind: lincheck.Contains, Key: keyA, Ok: s.SnapContains(x, keyA)})

		rec.BeginAttempt(0)
		otb.Atomic(nil, func(tx *otb.Tx) {
			rec.Op(0, lincheck.Op{Kind: lincheck.Remove, Key: keyA, Ok: s.Remove(tx, keyA)})
			rec.Op(0, lincheck.Op{Kind: lincheck.Add, Key: keyB, Ok: s.Add(tx, keyB)})
		})
		rec.Commit(0)

		rec.Op(1, lincheck.Op{Kind: lincheck.Contains, Key: keyB, Ok: s.SnapContains(x, keyB)})
	})
	rec.Commit(1)

	return lincheck.CheckOpacity(lincheck.SetTxnSpec(), rec.History())
}

// TestSnapshotScheduleOpaque: the correct runtime serializes the fixed
// schedule (reader before writer).
func TestSnapshotScheduleOpaque(t *testing.T) {
	if res := runSnapshotSchedule(t); res.Outcome != lincheck.Ok {
		t.Fatalf("correct runtime judged %v: %s", res.Outcome, res.Detail)
	}
}

// TestMutationBrokenSnapshotCaught flips the visibility mutation (snapshot
// reads resolve to the newest version, ignoring the pinned timestamp) and
// requires the opacity checker to reject the same schedule. This proves the
// checker actually constrains the snapshot rule — the guarantee the whole
// runtime exists for — rather than vacuously passing.
func TestMutationBrokenSnapshotCaught(t *testing.T) {
	mutBreakSnapshot = true
	defer func() { mutBreakSnapshot = false }()
	res := runSnapshotSchedule(t)
	if res.Outcome != lincheck.Violation {
		t.Fatalf("broken snapshot visibility judged %v, want violation (detail: %s)", res.Outcome, res.Detail)
	}
	t.Logf("caught: %s", res.Detail)
}
