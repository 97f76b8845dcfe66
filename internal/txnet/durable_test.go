package txnet

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/chaos/leak"
	"repro/internal/wal"
)

// newDurableServer opens (or reopens) the durable state in dir and serves
// it. Callers that restart must Shutdown the previous server first — two
// servers on one WAL dir would interleave appends.
func newDurableServer(t *testing.T, dir string, snapEvery int) *Server {
	t.Helper()
	dur, err := OpenDurable(NewOTBStore(), DurabilityOptions{
		Dir:           dir,
		Fsync:         wal.SyncAlways,
		SnapshotEvery: snapEvery,
	})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return newTestServer(t, Options{Durable: dur, SessionTTL: time.Hour})
}

func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestDurableRestartKeepsStateAndSessions(t *testing.T) {
	leak.CheckCleanup(t)
	dir := filepath.Join(t.TempDir(), "wal")

	s := newDurableServer(t, dir, -1)
	rc := dialRaw(t, s.Addr())
	rc.hello(0)
	sessID := rc.sess
	if resp := rc.txn(1, 0,
		Op{Code: OpAdd, Struct: 0, Key: 5},
		Op{Code: OpPut, Struct: 1, Key: 9, Val: 3},
		Op{Code: OpAdd, Struct: 2, Key: 11},
	); resp.status != StatusOK {
		t.Fatalf("txn: %+v", resp)
	}
	// A mutating txn whose results are non-trivial, to compare after replay.
	last := rc.txn(2, 0,
		Op{Code: OpAdd, Struct: 0, Key: 5},      // duplicate → OK=false
		Op{Code: OpRemoveMin, Struct: 2},        // pops 11
		Op{Code: OpGet, Struct: 1, Key: 9},      // reads 3
		Op{Code: OpDelete, Struct: 1, Key: 404}, // absent → false
	)
	if last.status != StatusOK {
		t.Fatalf("txn 2: %+v", last)
	}
	shutdown(t, s)

	s2 := newDurableServer(t, dir, -1)
	rec := s2.dur.Recovery()
	if rec.CommitsReplayed != 2 || rec.SessionsRestored != 1 || rec.TornTail {
		t.Fatalf("recovery: %+v", rec)
	}
	rc2 := dialRaw(t, s2.Addr())
	if h := rc2.hello(sessID); h.status != StatusHello || h.lastSeq != 2 {
		t.Fatalf("resume after restart: %+v", h)
	}
	// Criterion (b): retrying the last acked seq replays the cached verdict
	// bit-for-bit (the replayed response was rebuilt from the log).
	replay := rc2.txn(2, 0,
		Op{Code: OpAdd, Struct: 0, Key: 5},
		Op{Code: OpRemoveMin, Struct: 2},
		Op{Code: OpGet, Struct: 1, Key: 9},
		Op{Code: OpDelete, Struct: 1, Key: 404},
	)
	if replay.status != StatusOK || len(replay.results) != len(last.results) {
		t.Fatalf("replayed verdict: %+v", replay)
	}
	for i := range last.results {
		if replay.results[i] != last.results[i] {
			t.Fatalf("result %d changed across restart: %+v vs %+v", i, replay.results[i], last.results[i])
		}
	}
	// Criterion (a): state survived — key 5 present, map[9]=3, pq empty.
	chk := rc2.txn(3, 0,
		Op{Code: OpContains, Struct: 0, Key: 5},
		Op{Code: OpGet, Struct: 1, Key: 9},
		Op{Code: OpMin, Struct: 2},
	)
	if chk.status != StatusOK || !chk.results[0].OK || chk.results[1].Out != 3 || chk.results[2].OK {
		t.Fatalf("recovered state: %+v", chk)
	}
	shutdown(t, s2)
}

func TestDurableSnapshotCutsReplay(t *testing.T) {
	leak.CheckCleanup(t)
	dir := filepath.Join(t.TempDir(), "wal")

	s := newDurableServer(t, dir, 8)
	rc := dialRaw(t, s.Addr())
	rc.hello(0)
	const total = 30
	for i := 1; i <= total; i++ {
		if resp := rc.txn(uint64(i), 0, Op{Code: OpAdd, Struct: 0, Key: int64(i)}); resp.status != StatusOK {
			t.Fatalf("txn %d: %+v", i, resp)
		}
	}
	shutdown(t, s)

	s2 := newDurableServer(t, dir, 8)
	rec := s2.dur.Recovery()
	if rec.SnapshotLSN == 0 {
		t.Fatalf("no snapshot was taken: %+v", rec)
	}
	// 30 commits at cadence 8 → last snapshot at commit 24, tail ≤ 6 commits.
	if rec.CommitsReplayed >= total || rec.CommitsReplayed > 8 {
		t.Fatalf("snapshot did not cut replay: %+v", rec)
	}
	rc2 := dialRaw(t, s2.Addr())
	rc2.hello(0)
	for i := 1; i <= total; i++ {
		resp := rc2.txn(uint64(i), 0, Op{Code: OpContains, Struct: 0, Key: int64(i)})
		if resp.status != StatusOK || !resp.results[0].OK {
			t.Fatalf("key %d lost across snapshot+replay: %+v", i, resp)
		}
	}
	shutdown(t, s2)
}

func TestDurableReadsNotLogged(t *testing.T) {
	leak.CheckCleanup(t)
	dir := filepath.Join(t.TempDir(), "wal")
	s := newDurableServer(t, dir, -1)
	rc := dialRaw(t, s.Addr())
	rc.hello(0)
	if resp := rc.txn(1, 0, Op{Code: OpAdd, Struct: 0, Key: 1}); resp.status != StatusOK {
		t.Fatalf("seed txn: %+v", resp)
	}
	before := s.dur.log.NextLSN()
	for i := 2; i <= 6; i++ {
		if resp := rc.txn(uint64(i), 0, Op{Code: OpContains, Struct: 0, Key: 1}); resp.status != StatusOK {
			t.Fatalf("read txn %d: %+v", i, resp)
		}
	}
	if after := s.dur.log.NextLSN(); after != before {
		t.Fatalf("read-only transactions were logged: lsn %d → %d", before, after)
	}
	// But the exactly-once cache still tracks them.
	if resp := rc.txn(6, 0, Op{Code: OpContains, Struct: 0, Key: 1}); resp.status != StatusOK || !resp.results[0].OK {
		t.Fatalf("read replay: %+v", resp)
	}
	shutdown(t, s)
}

func TestByeFreesSessionImmediately(t *testing.T) {
	leak.CheckCleanup(t)
	s := newTestServer(t, Options{})
	before := SessionStatsSnapshot()

	rc := dialRaw(t, s.Addr())
	rc.hello(0)
	id := rc.sess
	if n := s.sess.len(); n != 1 {
		t.Fatalf("sessions after hello: %d", n)
	}
	if resp := rc.send(appendBye(nil, id)); resp.status != StatusBye {
		t.Fatalf("bye: %+v", resp)
	}
	if n := s.sess.len(); n != 0 {
		t.Fatalf("sessions after bye: %d", n)
	}
	// The freed ID is gone for good — resuming it must fail loudly.
	rc2 := dialRaw(t, s.Addr())
	if h := rc2.hello(id); h.status != StatusBadRequest {
		t.Fatalf("resume of closed session: %+v", h)
	}
	after := SessionStatsSnapshot()
	if after.Opened-before.Opened != 1 || after.Closed-before.Closed != 1 || after.ResumeExpired-before.ResumeExpired != 1 {
		t.Fatalf("session stats deltas: before %+v after %+v", before, after)
	}
}

func TestClientCloseSendsBye(t *testing.T) {
	leak.CheckCleanup(t)
	s := newTestServer(t, Options{})
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := c.SetAdd(context.Background(), 0, 1); err != nil {
		t.Fatalf("SetAdd: %v", err)
	}
	if n := s.sess.len(); n != 1 {
		t.Fatalf("sessions before close: %d", n)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := s.sess.len(); n != 0 {
		t.Fatalf("session not freed by Close: %d live", n)
	}
	if err := c.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
}

func TestDurableByeSurvivesRestart(t *testing.T) {
	leak.CheckCleanup(t)
	dir := filepath.Join(t.TempDir(), "wal")
	s := newDurableServer(t, dir, -1)
	rc := dialRaw(t, s.Addr())
	rc.hello(0)
	id := rc.sess
	if resp := rc.txn(1, 0, Op{Code: OpAdd, Struct: 0, Key: 7}); resp.status != StatusOK {
		t.Fatalf("txn: %+v", resp)
	}
	if resp := rc.send(appendBye(nil, id)); resp.status != StatusBye {
		t.Fatalf("bye: %+v", resp)
	}
	shutdown(t, s)

	s2 := newDurableServer(t, dir, -1)
	if rec := s2.dur.Recovery(); rec.SessionsRestored != 0 {
		t.Fatalf("closed session resurrected: %+v", rec)
	}
	rc2 := dialRaw(t, s2.Addr())
	if h := rc2.hello(id); h.status != StatusBadRequest {
		t.Fatalf("resume of closed session after restart: %+v", h)
	}
	// The data the session wrote is still there.
	rc3 := dialRaw(t, s2.Addr())
	rc3.hello(0)
	if resp := rc3.txn(1, 0, Op{Code: OpContains, Struct: 0, Key: 7}); resp.status != StatusOK || !resp.results[0].OK {
		t.Fatalf("state after closed session: %+v", resp)
	}
	shutdown(t, s2)
}

func TestDurableSnapshotPreservesResponseCache(t *testing.T) {
	leak.CheckCleanup(t)
	dir := filepath.Join(t.TempDir(), "wal")
	s := newDurableServer(t, dir, 1) // snapshot after every commit
	rc := dialRaw(t, s.Addr())
	rc.hello(0)
	id := rc.sess
	last := rc.txn(1, 0, Op{Code: OpAdd, Struct: 0, Key: 3}, Op{Code: OpContains, Struct: 0, Key: 99})
	if last.status != StatusOK {
		t.Fatalf("txn: %+v", last)
	}
	shutdown(t, s)

	s2 := newDurableServer(t, dir, 1)
	rec := s2.dur.Recovery()
	if rec.SnapshotLSN == 0 || rec.CommitsReplayed != 0 {
		t.Fatalf("expected pure-snapshot recovery: %+v", rec)
	}
	// The verdict must come from the snapshot's session cache (no commit
	// records were replayed to rebuild it).
	rc2 := dialRaw(t, s2.Addr())
	if h := rc2.hello(id); h.status != StatusHello || h.lastSeq != 1 {
		t.Fatalf("resume: %+v", h)
	}
	replay := rc2.txn(1, 0, Op{Code: OpAdd, Struct: 0, Key: 3}, Op{Code: OpContains, Struct: 0, Key: 99})
	if replay.status != StatusOK || replay.results[0] != last.results[0] || replay.results[1] != last.results[1] {
		t.Fatalf("snapshot-cached verdict: %+v vs %+v", replay, last)
	}
	shutdown(t, s2)
}

func TestSnapshotPayloadRoundTrip(t *testing.T) {
	store := NewOTBStore()
	dur := &Durable{store: store, sess: newSessionTable(time.Hour)}
	ctx := context.Background()
	ops := []Op{
		{Code: OpAdd, Struct: 0, Key: 10},
		{Code: OpPut, Struct: 1, Key: 20, Val: 7},
		{Code: OpAdd, Struct: 2, Key: 30},
	}
	res := make([]OpResult, len(ops))
	if err := store.Exec(ctx, ops, res); err != nil {
		t.Fatal(err)
	}
	sess := dur.sess.open()
	sess.lastSeq.Store(9)
	sess.lastResp = []byte{1, 2, 3}

	payload := dur.snapshotPayloadLocked()

	dur2 := &Durable{store: NewOTBStore(), sess: newSessionTable(time.Hour)}
	if err := dur2.applySnapshot(payload); err != nil {
		t.Fatalf("applySnapshot: %v", err)
	}
	s2, ok := dur2.sess.lookup(sess.id)
	if !ok || s2.lastSeq.Load() != 9 || !bytes.Equal(s2.lastResp, []byte{1, 2, 3}) {
		t.Fatalf("session round-trip: %+v ok=%v", s2, ok)
	}
	chk := []Op{
		{Code: OpContains, Struct: 0, Key: 10},
		{Code: OpGet, Struct: 1, Key: 20},
		{Code: OpMin, Struct: 2},
	}
	cres := make([]OpResult, len(chk))
	if err := dur2.store.Exec(ctx, chk, cres); err != nil {
		t.Fatal(err)
	}
	if !cres[0].OK || cres[1].Out != 7 || cres[2].Out != 30 || !cres[2].OK {
		t.Fatalf("store round-trip: %+v", cres)
	}
	// A new session opened post-restore must not collide with restored IDs.
	if ns := dur2.sess.open(); ns.id <= sess.id {
		t.Fatalf("nextID not restored: new id %d after restored %d", ns.id, sess.id)
	}
}

// batchRecorder is a DurableStore that records the largest batch Exec has
// been handed.
type batchRecorder struct {
	DurableStore
	largest, execs int
}

func (r *batchRecorder) Exec(ctx context.Context, ops []Op, res []OpResult) error {
	r.largest = max(r.largest, len(ops))
	r.execs++
	return r.DurableStore.Exec(ctx, ops, res)
}

// TestSnapshotApplyBatches restores a snapshot of a few thousand map keys
// and checks that OpenDurable re-executes it in transactions of at most 64
// ops, never as one transaction of the whole dump.
func TestSnapshotApplyBatches(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	opts := DurabilityOptions{Dir: dir, Fsync: wal.SyncNever, SnapshotEvery: -1}
	store := NewOTBStore()
	dur, err := OpenDurable(store, opts)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	const keys = 3000
	ops := make([]Op, 0, keys)
	for k := int64(1); k <= keys; k++ {
		ops = append(ops, Op{Code: OpPut, Struct: 1, Key: k, Val: uint64(k) * 3})
	}
	if err := store.Exec(context.Background(), ops, make([]OpResult, len(ops))); err != nil {
		t.Fatal(err)
	}
	dur.logSessionOpen(dur.sess.open().id) // the snapshot then covers lsn 1
	dur.mu.Lock()
	err = dur.log.Snapshot(dur.snapshotPayloadLocked())
	dur.mu.Unlock()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}

	rec := &batchRecorder{DurableStore: NewOTBStore()}
	dur2, err := OpenDurable(rec, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer dur2.Close()
	if r := dur2.Recovery(); r.SnapshotLSN == 0 || r.RecordsReplayed != 0 {
		t.Fatalf("recovery did not come from the snapshot: %+v", r)
	}
	const most = 64 // the benchmark's preload transaction
	if rec.largest > most || rec.execs < keys/most {
		t.Fatalf("restore ran %d Execs, the largest of %d ops; want batches of at most %d", rec.execs, rec.largest, most)
	}
	restored := make(map[Op]bool)
	rec.DumpOps(func(op Op) { restored[op] = true })
	if len(restored) != len(ops) {
		t.Fatalf("restored %d ops, dumped %d", len(restored), len(ops))
	}
	for _, op := range ops {
		if !restored[op] {
			t.Fatalf("restored store lacks %+v", op)
		}
	}
}
