package txnet

import (
	"cmp"
	"context"
	"errors"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/chaos/leak"
	"repro/internal/wal"
)

// newMVOTBServer builds a test server over the multi-version store.
func newMVOTBServer(t *testing.T, opts Options) (*Server, *MVOTBStore) {
	t.Helper()
	st := NewMVOTBStore()
	t.Cleanup(st.Stop)
	opts.Store = st
	return newTestServer(t, opts), st
}

// TestMVOTBStoreWire drives mixed and read-only batches through the full
// wire stack against the multi-version store: updates atomically, reads
// through the snapshot path (the all-read batch), same answers either way.
func TestMVOTBStoreWire(t *testing.T) {
	leak.CheckCleanup(t)
	s, _ := newMVOTBServer(t, Options{})
	c := newTestClient(t, s.Addr())
	ctx := context.Background()

	res, err := c.Do(ctx, []Op{
		{Code: OpAdd, Struct: 0, Key: 5},
		{Code: OpPut, Struct: 1, Key: 9, Val: 3},
		{Code: OpContains, Struct: 0, Key: 5}, // mixed batch: updater path
	})
	if err != nil {
		t.Fatalf("mixed batch: %v", err)
	}
	for i, r := range res {
		if !r.OK {
			t.Fatalf("mixed batch op %d: %+v", i, r)
		}
	}

	// All-read batch: snapshot path. One atomic view across both structures.
	res, err = c.Do(ctx, []Op{
		{Code: OpContains, Struct: 0, Key: 5},
		{Code: OpGet, Struct: 1, Key: 9},
		{Code: OpContains, Struct: 0, Key: 6},
	})
	if err != nil {
		t.Fatalf("read batch: %v", err)
	}
	if !res[0].OK || !res[1].OK || res[1].Out != 3 || res[2].OK {
		t.Fatalf("read batch results: %+v", res)
	}

	// Unsupported op on the set is rejected before any transactional work.
	if _, err := c.Do(ctx, []Op{{Code: OpMin, Struct: 0}}); err == nil {
		t.Fatal("OpMin on mvotb set: want error")
	}
}

// TestSessionTTLExpiryOnResume is the reconnect leg of session expiry: a
// client whose idle session was swept and whose connection is gone gets a
// definitive bad-request verdict when it tries to resume — never a fresh
// session that would silently re-apply an unacknowledged transaction. The
// store's state must show exactly the committed history.
func TestSessionTTLExpiryOnResume(t *testing.T) {
	leak.CheckCleanup(t)
	s, _ := newMVOTBServer(t, Options{SessionTTL: time.Nanosecond})
	c := newTestClient(t, s.Addr())
	ctx := context.Background()

	if ok, err := c.SetAdd(ctx, 0, 1); err != nil || !ok {
		t.Fatalf("add: %v %v", ok, err)
	}

	// Connection dies and the idle session expires while the client is away.
	c.mu.Lock()
	_ = c.dropLocked()
	c.mu.Unlock()
	time.Sleep(time.Millisecond)
	if n := s.sess.sweep(time.Now()); n == 0 {
		t.Fatal("session not swept")
	}

	// The next request forces the hello-resume path; the server no longer
	// knows the session and must refuse, loudly.
	dctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if _, err := c.Do(dctx, []Op{{Code: OpAdd, Struct: 0, Key: 2}}); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("want ErrSessionExpired on resume, got %v", err)
	}

	// A fresh session sees exactly the committed history: key 1 applied
	// once, the refused key 2 never applied.
	c2 := newTestClient(t, s.Addr())
	res, err := c2.Do(ctx, []Op{
		{Code: OpContains, Struct: 0, Key: 1},
		{Code: OpContains, Struct: 0, Key: 2},
	})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !res[0].OK || res[1].OK {
		t.Fatalf("state after expiry: key1=%v key2=%v, want true,false", res[0].OK, res[1].OK)
	}
	if ok, err := c2.SetAdd(ctx, 0, 1); err != nil || ok {
		t.Fatalf("re-add key 1: ok=%v err=%v, want false (already present exactly once)", ok, err)
	}
}

// dumpOf collects a store's DumpOps, sorted so stores whose structures walk
// in different orders compare equal.
func dumpOf(st DurableStore) []Op {
	var ops []Op
	st.DumpOps(func(op Op) { ops = append(ops, op) })
	slices.SortFunc(ops, func(a, b Op) int {
		return cmp.Or(cmp.Compare(a.Struct, b.Struct), cmp.Compare(a.Key, b.Key))
	})
	return ops
}

// TestDurableMVOTBRoundTrip: the multi-version store is a DurableStore.
// Commits over the wire, a clean shutdown, then recovery into a fresh store
// must rebuild the same state (equal dumps) and keep the session's cached
// verdict replayable — from the log, and again from a snapshot.
func TestDurableMVOTBRoundTrip(t *testing.T) {
	leak.CheckCleanup(t)
	for _, snapEvery := range []int{-1, 2} {
		dir := filepath.Join(t.TempDir(), "wal")
		open := func() (*Server, *MVOTBStore) {
			st := NewMVOTBStore()
			t.Cleanup(st.Stop)
			dur, err := OpenDurable(st, DurabilityOptions{Dir: dir, Fsync: wal.SyncAlways, SnapshotEvery: snapEvery})
			if err != nil {
				t.Fatalf("OpenDurable: %v", err)
			}
			return newTestServer(t, Options{Durable: dur, SessionTTL: time.Hour}), st
		}

		s, st := open()
		rc := dialRaw(t, s.Addr())
		rc.hello(0)
		for i := int64(1); i <= 5; i++ {
			if resp := rc.txn(uint64(i), 0,
				Op{Code: OpAdd, Struct: 0, Key: i},
				Op{Code: OpPut, Struct: 1, Key: i, Val: uint64(10 * i)},
			); resp.status != StatusOK {
				t.Fatalf("txn %d: %+v", i, resp)
			}
		}
		lastOps := []Op{
			{Code: OpRemove, Struct: 0, Key: 2},
			{Code: OpGet, Struct: 1, Key: 3},
			{Code: OpDelete, Struct: 1, Key: 404},
		}
		last := rc.txn(6, 0, lastOps...)
		if last.status != StatusOK {
			t.Fatalf("txn 6: %+v", last)
		}
		want := dumpOf(st)
		if len(want) != 9 { // keys 1,3,4,5 in the set, 1..5 in the map
			t.Fatalf("dump before restart has %d ops, want 9: %+v", len(want), want)
		}
		shutdown(t, s)

		s2, st2 := open()
		if rec := s2.dur.Recovery(); rec.SessionsRestored != 1 || rec.TornTail || (snapEvery > 0) != (rec.SnapshotLSN > 0) {
			t.Fatalf("snapEvery=%d recovery: %+v", snapEvery, rec)
		}
		if got := dumpOf(st2); !slices.Equal(got, want) {
			t.Fatalf("snapEvery=%d recovered dump\n got %+v\nwant %+v", snapEvery, got, want)
		}
		rc2 := dialRaw(t, s2.Addr())
		if h := rc2.hello(rc.sess); h.status != StatusHello || h.lastSeq != 6 {
			t.Fatalf("resume after restart: %+v", h)
		}
		replay := rc2.txn(6, 0, lastOps...)
		if replay.status != StatusOK || !slices.Equal(replay.results, last.results) {
			t.Fatalf("replayed verdict %+v, want %+v", replay, last)
		}
		shutdown(t, s2)
	}
}
