package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos/failpoint"
)

func mustOpen(t *testing.T, dir string, opts Options) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func appendN(t *testing.T, l *Log, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		lsn, err := l.Append([]byte(fmt.Sprintf("record-%04d", i)))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if err := l.SyncTo(lsn); err != nil {
			t.Fatalf("SyncTo %d: %v", lsn, err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := mustOpen(t, dir, Options{Policy: SyncAlways})
	if rec.Snapshot != nil || len(rec.Records) != 0 || rec.TornTail {
		t.Fatalf("fresh dir recovery: %+v", rec)
	}
	appendN(t, l, 0, 10)
	if got := l.NextLSN(); got != 11 {
		t.Fatalf("NextLSN = %d, want 11", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec2 := mustOpen(t, dir, Options{Policy: SyncAlways})
	defer l2.Close()
	if len(rec2.Records) != 10 || rec2.TornTail {
		t.Fatalf("recovered %d records (torn=%v), want 10 clean", len(rec2.Records), rec2.TornTail)
	}
	for i, r := range rec2.Records {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has lsn %d", i, r.LSN)
		}
		if want := fmt.Sprintf("record-%04d", i); string(r.Payload) != want {
			t.Fatalf("record %d payload %q, want %q", i, r.Payload, want)
		}
	}
	if got := l2.NextLSN(); got != 11 {
		t.Fatalf("reopened NextLSN = %d, want 11", got)
	}
	// The reopened log must append seamlessly after the recovered tail.
	appendN(t, l2, 10, 1)
}

// segFiles returns the segment file names in dir.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), segSuffix) {
			out = append(out, e.Name())
		}
	}
	return out
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	appendN(t, l, 0, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	// Chop bytes off the final record, simulating a crash mid-append.
	path := filepath.Join(dir, segs[0])
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	l2, rec := mustOpen(t, dir, Options{Policy: SyncAlways})
	if len(rec.Records) != 4 || !rec.TornTail {
		t.Fatalf("recovered %d records torn=%v, want 4 torn", len(rec.Records), rec.TornTail)
	}
	if got := l2.NextLSN(); got != 5 {
		t.Fatalf("NextLSN = %d, want 5 (torn record's lsn is reusable)", got)
	}
	// The truncated log accepts new appends at the reclaimed LSN.
	appendN(t, l2, 100, 2)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec3 := mustOpenAndClose(t, dir)
	if len(rec3.Records) != 6 || rec3.TornTail {
		t.Fatalf("after re-append: %d records torn=%v, want 6 clean", len(rec3.Records), rec3.TornTail)
	}
}

func mustOpenAndClose(t *testing.T, dir string) (*Log, *Recovery) {
	t.Helper()
	l, rec := mustOpen(t, dir, Options{Policy: SyncAlways})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return l, rec
}

func TestCorruptTailRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	appendN(t, l, 0, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segFiles(t, dir)[0])
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff // flip a bit inside the final record's payload
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpenAndClose(t, dir)
	if len(rec.Records) != 4 || !rec.TornTail {
		t.Fatalf("recovered %d records torn=%v, want 4 torn", len(rec.Records), rec.TornTail)
	}
}

func TestMidLogCorruptionIsFatal(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	appendN(t, l, 0, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segFiles(t, dir)[0])
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[20] ^= 0xff // inside the first record's payload, far from the tail
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted mid-log corruption")
	}
}

func TestSnapshotTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	appendN(t, l, 0, 8)
	if err := l.Snapshot([]byte("state-after-8")); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	appendN(t, l, 8, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := mustOpen(t, dir, Options{Policy: SyncAlways})
	defer l2.Close()
	if string(rec.Snapshot) != "state-after-8" || rec.SnapshotLSN != 8 {
		t.Fatalf("snapshot %q lsn %d", rec.Snapshot, rec.SnapshotLSN)
	}
	if len(rec.Records) != 3 || rec.Records[0].LSN != 9 {
		t.Fatalf("tail: %d records starting at %d, want 3 from 9", len(rec.Records), rec.Records[0].LSN)
	}
	// The pre-snapshot segment must be gone.
	if segs := segFiles(t, dir); len(segs) != 1 {
		t.Fatalf("segments after snapshot: %v", segs)
	}
}

func TestSecondSnapshotRemovesFirst(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	appendN(t, l, 0, 4)
	if err := l.Snapshot([]byte("one")); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 4, 4)
	if err := l.Snapshot([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(dir)
	snaps := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), snapSuffix) {
			snaps++
		}
	}
	if snaps != 1 {
		t.Fatalf("%d snapshot files, want 1", snaps)
	}
	_, rec := mustOpenAndClose(t, dir)
	if string(rec.Snapshot) != "two" || len(rec.Records) != 0 {
		t.Fatalf("recovered %q + %d records", rec.Snapshot, len(rec.Records))
	}
}

func TestCorruptSnapshotSkipped(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	appendN(t, l, 0, 4)
	if err := l.Snapshot([]byte("good")); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 4, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Plant a newer, garbage snapshot. Recovery must skip it and fall back
	// to the older valid one — whose record tail is still on disk.
	if err := os.WriteFile(filepath.Join(dir, snapName(6)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpenAndClose(t, dir)
	if rec.SnapshotsSkipped != 1 {
		t.Fatalf("SnapshotsSkipped = %d, want 1", rec.SnapshotsSkipped)
	}
	if string(rec.Snapshot) != "good" || rec.SnapshotLSN != 4 || len(rec.Records) != 2 {
		t.Fatalf("fell back to %q lsn %d with %d records", rec.Snapshot, rec.SnapshotLSN, len(rec.Records))
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	const writers, each = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				lsn, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					errs <- err
					return
				}
				if err := l.SyncTo(lsn); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := l.SyncedLSN(); got != writers*each {
		t.Fatalf("SyncedLSN = %d, want %d", got, writers*each)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpenAndClose(t, dir)
	if len(rec.Records) != writers*each {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), writers*each)
	}
}

func TestIntervalPolicySyncsInBackground(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncInterval, Interval: time.Millisecond})
	lsn, err := l.Append([]byte("interval"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SyncTo(lsn); err != nil { // must not block or error
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.SyncedLSN() < lsn {
		if time.Now().After(deadline) {
			t.Fatalf("background sync never covered lsn %d", lsn)
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendTornFailpointPoisonsLog(t *testing.T) {
	failpoint.DisarmAll()
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	appendN(t, l, 0, 3)
	defer failpoint.Arm("wal.append.torn", failpoint.Spec{Action: failpoint.Panic, Nth: 1})()
	if _, err := l.Append([]byte("doomed-record")); err == nil {
		t.Fatal("torn append did not error")
	}
	var pv *failpoint.PanicValue
	if _, err := l.Append([]byte("after")); err == nil || !errors.As(err, &pv) {
		t.Fatalf("poisoned log accepted an append (err=%v)", err)
	}
	if err := l.SyncTo(1); err == nil {
		t.Fatal("poisoned log accepted a sync")
	}
	_ = l.Close()

	// Recovery truncates the torn record; the three whole ones survive.
	_, rec := mustOpenAndClose(t, dir)
	if len(rec.Records) != 3 || !rec.TornTail {
		t.Fatalf("recovered %d records torn=%v, want 3 torn", len(rec.Records), rec.TornTail)
	}
}

func TestFsyncFailpointFailsSync(t *testing.T) {
	failpoint.DisarmAll()
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	lsn, err := l.Append([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	defer failpoint.Arm("wal.fsync.fail", failpoint.Spec{Action: failpoint.Panic, Nth: 1})()
	var pv *failpoint.PanicValue
	if err := l.SyncTo(lsn); err == nil || !errors.As(err, &pv) {
		t.Fatalf("SyncTo under fsync fault: %v", err)
	}
	// fsync failure is sticky: the log must refuse to pretend later syncs
	// succeeded (fsyncgate semantics).
	if err := l.SyncTo(lsn); err == nil {
		t.Fatal("second SyncTo succeeded after an fsync failure")
	}
	_ = l.Close()
}

func TestSnapshotPartialFailpointLeavesLogUsable(t *testing.T) {
	failpoint.DisarmAll()
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	appendN(t, l, 0, 4)
	func() {
		defer failpoint.Arm("wal.snapshot.partial", failpoint.Spec{Action: failpoint.Panic, Nth: 1})()
		var pv *failpoint.PanicValue
		if err := l.Snapshot(bytes.Repeat([]byte("s"), 64)); err == nil || !errors.As(err, &pv) {
			t.Fatalf("Snapshot under partial fault: %v", err)
		}
	}()
	// A failed snapshot must not cost any history or wedge the log.
	appendN(t, l, 4, 2)
	if err := l.Snapshot([]byte("retried")); err != nil {
		t.Fatalf("retried snapshot: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpenAndClose(t, dir)
	if string(rec.Snapshot) != "retried" || len(rec.Records) != 0 || rec.SnapshotsSkipped != 0 {
		t.Fatalf("recovery after failed+retried snapshot: %+v", rec)
	}
}

func TestReplayStallFailpointFailsOpen(t *testing.T) {
	failpoint.DisarmAll()
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	appendN(t, l, 0, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	func() {
		defer failpoint.Arm("wal.replay.stall", failpoint.Spec{Action: failpoint.Panic, Nth: 2})()
		_, _, err := Open(dir, Options{})
		var pv *failpoint.PanicValue
		if err == nil || !errors.As(err, &pv) {
			t.Fatalf("Open under replay fault: %v", err)
		}
	}()
	// Recovery is read-only up to the stall, so a retry succeeds in full.
	_, rec := mustOpenAndClose(t, dir)
	if len(rec.Records) != 3 {
		t.Fatalf("retry recovered %d records, want 3", len(rec.Records))
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"always": SyncAlways, "interval": SyncInterval, "never": SyncNever} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
}

func TestSyncNeverLosesNothingOnCleanClose(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncNever})
	appendN(t, l, 0, 5) // SyncTo is a no-op under SyncNever
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpenAndClose(t, dir)
	if len(rec.Records) != 5 {
		t.Fatalf("recovered %d records, want 5", len(rec.Records))
	}
}

// TestSyncNeverKeepsAckedTailInProcess pins what SyncNever promises and
// what it does not: an appended record sits in the log's user-space buffer,
// not in the kernel, until Sync (or a snapshot, Close or a full buffer)
// flushes it. A process kill before that loses it.
func TestSyncNeverKeepsAckedTailInProcess(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncNever})
	defer l.Close()
	payload := []byte("acked-but-buffered")
	lsn, err := l.Append(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SyncTo(lsn); err != nil {
		t.Fatal(err)
	}
	onDisk := func() bool {
		t.Helper()
		segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no segment files in %s (%v)", dir, err)
		}
		for _, seg := range segs {
			b, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(b, payload) {
				return true
			}
		}
		return false
	}
	if onDisk() {
		t.Fatal("record reached the segment file before Sync: the buffer is not where this test thinks")
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if !onDisk() {
		t.Fatal("record missing from the segment file after Sync")
	}
}
