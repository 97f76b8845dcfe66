package txnet

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/wal"
)

// buildDurableLog writes commits logged transactions into a fresh durable
// store at dir (SyncNever: a clean Close loses nothing, and building the
// fixture is not the thing being measured) and returns the session ID that
// wrote them.
func buildDurableLog(tb testing.TB, dir string, commits, snapEvery int) uint64 {
	tb.Helper()
	d, err := OpenDurable(NewOTBStore(), DurabilityOptions{
		Dir:           dir,
		Fsync:         wal.SyncNever,
		SnapshotEvery: snapEvery,
	})
	if err != nil {
		tb.Fatalf("open durable: %v", err)
	}
	sess := d.sess.open()
	d.logSessionOpen(sess.id)
	results := make([]OpResult, 2)
	for i := 0; i < commits; i++ {
		k := int64(i % 4096)
		req := txnReq{
			session: sess.id,
			seq:     uint64(i + 1),
			ops: []Op{
				{Code: OpAdd, Struct: 0, Key: k},
				{Code: OpPut, Struct: 1, Key: k, Val: uint64(i)},
			},
		}
		if _, err := d.commitTxn(context.Background(), sess, req, results, nil, new(reqObs)); err != nil {
			tb.Fatalf("commit %d: %v", i, err)
		}
	}
	if err := d.Close(); err != nil {
		tb.Fatalf("close durable: %v", err)
	}
	return sess.id
}

// recoverDurable reopens the directory and returns the recovery stats.
func recoverDurable(tb testing.TB, dir string) (*Durable, RecoveryStats) {
	tb.Helper()
	d, err := OpenDurable(NewOTBStore(), DurabilityOptions{Dir: dir, Fsync: wal.SyncNever})
	if err != nil {
		tb.Fatalf("recover: %v", err)
	}
	return d, d.Recovery()
}

// TestRecoveryTiming measures recovery of the same workload with and
// without snapshots, checks the replay accounting, and — when
// RECOVERY_BENCH_OUT is set — emits the timings as stmbench-result/v1
// records with recovery_ms populated, so CI can archive the trend.
func TestRecoveryTiming(t *testing.T) {
	const commits = 5000
	var out []bench.Result
	for _, tc := range []struct {
		name      string
		snapEvery int
		maxReplay int
	}{
		{"log-only", -1, commits},
		{"snapshot-64", 64, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sessID := buildDurableLog(t, dir, commits, tc.snapEvery)
			d, rec := recoverDurable(t, dir)
			defer d.Close()
			if rec.CommitsReplayed > tc.maxReplay {
				t.Fatalf("replayed %d commits, want at most %d", rec.CommitsReplayed, tc.maxReplay)
			}
			if tc.snapEvery < 0 && rec.CommitsReplayed != commits {
				t.Fatalf("log-only recovery replayed %d commits, want %d", rec.CommitsReplayed, commits)
			}
			sess, ok := d.sess.lookup(sessID)
			if !ok || sess.lastSeq.Load() != commits {
				t.Fatalf("recovered session: ok=%v lastSeq=%d, want %d", ok, sess.lastSeq.Load(), commits)
			}
			if rec.Elapsed <= 0 {
				t.Fatalf("recovery elapsed %v, want > 0", rec.Elapsed)
			}
			t.Logf("recovered %d records (%d commits) in %v", rec.RecordsReplayed, rec.CommitsReplayed, rec.Elapsed)
			out = append(out, bench.Result{
				Schema:     bench.ResultSchema,
				Structure:  "recovery/" + tc.name,
				Algorithm:  "otb-durable",
				Threads:    1,
				OpsPerTx:   2,
				DurationNS: rec.Elapsed.Nanoseconds(),
				TxPerSec:   float64(rec.CommitsReplayed) / rec.Elapsed.Seconds(),
				RecoveryMS: float64(rec.Elapsed) / float64(time.Millisecond),
			})
		})
	}
	if path := os.Getenv("RECOVERY_BENCH_OUT"); path != "" && len(out) == 2 {
		if err := bench.WriteResults(path, out); err != nil {
			t.Fatalf("write %s: %v", path, err)
		}
		t.Logf("recovery timings written to %s", path)
	}
}

// BenchmarkRecovery times OpenDurable against a prebuilt log, reporting
// both ns/op and the replayed-commit rate.
func BenchmarkRecovery(b *testing.B) {
	for _, snapEvery := range []int{-1, 256} {
		name := "log-only"
		if snapEvery > 0 {
			name = fmt.Sprintf("snapshot-%d", snapEvery)
		}
		b.Run(name, func(b *testing.B) {
			dir := b.TempDir()
			buildDurableLog(b, dir, 10000, snapEvery)
			b.ResetTimer()
			var replayed int
			for i := 0; i < b.N; i++ {
				d, rec := recoverDurable(b, dir)
				replayed += rec.CommitsReplayed
				_ = d.Close()
			}
			b.StopTimer()
			b.ReportMetric(float64(replayed)/float64(b.N), "commits-replayed/op")
		})
	}
}
