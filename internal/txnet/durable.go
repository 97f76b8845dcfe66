package txnet

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/trace"
	"repro/internal/wal"
)

// Durable makes a txnet server crash-recoverable: every committed mutating
// transaction is appended to a semantic write-ahead log (the op batch, not
// page images) before its acknowledgement leaves the process, and periodic
// snapshots — a full store dump plus the session table with its
// exactly-once response caches — bound replay time and let the log be
// truncated. On startup the newest valid snapshot is applied and the log
// tail replayed, so under -fsync=always every acked commit survives a kill
// and every resumed session still replays its cached verdict.
//
// Ordering: mutating transactions execute and log under one mutex, which
// fixes the replay order to the execution order. Durable mode therefore
// trades mutating-commit concurrency for deterministic recovery; read-only
// transactions are never logged and keep running fully concurrently.
//
// Failure model is fail-stop: if the log cannot append or fsync, the
// server must not keep acknowledging — commitTxn panics with *walFatal,
// which the connection handlers deliberately do not recover, crashing the
// process before any non-durable ack escapes.
type Durable struct {
	store DurableStore
	log   *wal.Log
	// mu orders everything the log sees: mutating Exec+Append pairs,
	// session lastSeq/lastResp updates (including read-only ones, so the
	// snapshot encoder can read them under mu alone), session open/close
	// records, and snapshots. Lock order: session.mu → mu → table.mu.
	mu               sync.Mutex
	buf              []byte
	snapEvery        int
	commitsSinceSnap int
	sess             *sessionTable
	rec              RecoveryStats
}

// DurableStore is a Store whose full state can be dumped as ops — what a
// snapshot needs beyond the session table. OTBStore and MVOTBStore do.
type DurableStore interface {
	Store
	DumpOps(emit func(Op))
}

// DurabilityOptions configure OpenDurable.
type DurabilityOptions struct {
	// Dir holds the log segments and snapshots.
	Dir string
	// Fsync is the group-commit policy (wal.SyncAlways acknowledges only
	// after fsync; wal.SyncInterval bounds loss to FsyncInterval;
	// wal.SyncNever leaves flushing to the OS).
	Fsync wal.Policy
	// FsyncInterval is the background fsync cadence under SyncInterval.
	FsyncInterval time.Duration
	// SnapshotEvery snapshots after that many logged commits. 0 means
	// DefaultSnapshotEvery; negative disables snapshotting.
	SnapshotEvery int
}

// DefaultSnapshotEvery is the snapshot cadence when unset.
const DefaultSnapshotEvery = 4096

// RecoveryStats describes what OpenDurable found and rebuilt.
type RecoveryStats struct {
	SnapshotLSN      uint64
	RecordsReplayed  int // log records beyond the snapshot
	CommitsReplayed  int // commit records among them
	SessionsRestored int
	TornTail         bool
	SnapshotsSkipped int
	Elapsed          time.Duration
}

// walFatal wraps a durable-commit-path log failure. It is panicked and
// deliberately NOT recovered by the connection handlers: once the log is
// broken the server cannot promise durability, so it must stop
// acknowledging — crash now, recover on restart.
type walFatal struct{ err error }

func (f *walFatal) Error() string { return "txnet: durability lost: " + f.err.Error() }
func (f *walFatal) Unwrap() error { return f.err }

func (d *Durable) fatal(err error) {
	panic(&walFatal{err: err})
}

// OpenDurable opens (creating if needed) the durable state in o.Dir,
// replays it into store, and returns the handle to pass as
// Options.Durable. The store must be empty: recovery rebuilds it from the
// snapshot and log.
func OpenDurable(store DurableStore, o DurabilityOptions) (*Durable, error) {
	start := time.Now()
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = DefaultSnapshotEvery
	}
	l, rec, err := wal.Open(o.Dir, wal.Options{Policy: o.Fsync, Interval: o.FsyncInterval})
	if err != nil {
		return nil, err
	}
	d := &Durable{
		store:     store,
		log:       l,
		snapEvery: o.SnapshotEvery,
		sess:      newSessionTable(DefaultSessionTTL),
	}
	if err := d.replay(rec); err != nil {
		_ = l.Close()
		return nil, err
	}
	d.rec.SnapshotLSN = rec.SnapshotLSN
	d.rec.RecordsReplayed = len(rec.Records)
	d.rec.TornTail = rec.TornTail
	d.rec.SnapshotsSkipped = rec.SnapshotsSkipped
	d.rec.SessionsRestored = d.sess.len()
	d.rec.Elapsed = time.Since(start)
	return d, nil
}

// Recovery reports what the last OpenDurable rebuilt.
func (d *Durable) Recovery() RecoveryStats { return d.rec }

// Close flushes and closes the log. The owning server calls this after its
// last connection has drained.
func (d *Durable) Close() error { return d.log.Close() }

// adoptSessions hands the recovered session table to the serving layer,
// applying its TTL. Restored sessions start with a fresh idle clock —
// server downtime must not burn a client's exactly-once window.
func (d *Durable) adoptSessions(ttl time.Duration) *sessionTable {
	d.sess.mu.Lock()
	d.sess.ttl = ttl
	d.sess.mu.Unlock()
	return d.sess
}

// Durable log record kinds (first payload byte).
const (
	recCommit       byte = 1
	recSessionOpen  byte = 2
	recSessionClose byte = 3
)

func appendOp(b []byte, op Op) []byte {
	b = append(b, byte(op.Code))
	b = binary.BigEndian.AppendUint32(b, op.Struct)
	b = binary.BigEndian.AppendUint64(b, uint64(op.Key))
	return binary.BigEndian.AppendUint64(b, op.Val)
}

func parseOp(p []byte) Op {
	return Op{
		Code:   OpCode(p[0]),
		Struct: binary.BigEndian.Uint32(p[1:]),
		Key:    int64(binary.BigEndian.Uint64(p[5:])),
		Val:    binary.BigEndian.Uint64(p[13:]),
	}
}

// commitTxn is execTxn's commit path in durable mode: execute, log, ack —
// in that order, with the ack written to the wire only after SyncTo
// honours the fsync policy. Called with sess.mu held and resp empty (the
// connection's response buffer). Store errors return for the caller's status
// classification; log errors never return.
func (d *Durable) commitTxn(ctx context.Context, sess *session, req txnReq, results []OpResult, resp []byte, o *reqObs) ([]byte, error) {
	if !mutating(req.ops) {
		// Read-only: nothing to log (replay would be a no-op, and skipping it
		// keeps the log proportional to actual writes). Execute outside d.mu (reads keep
		// their concurrency) but update the session cache under it, so
		// the snapshot encoder sees a consistent pair.
		err := d.store.Exec(ctx, req.ops, results)
		o.stamp(trace.StageExecute)
		if err != nil {
			return resp, err
		}
		resp = appendOKResp(resp, req.seq, results, o.wireStages(req))
		d.mu.Lock()
		sess.lastSeq.Store(req.seq)
		sess.lastResp = append(sess.lastResp[:0], resp[frameHdr:]...)
		d.mu.Unlock()
		return resp, nil
	}

	d.mu.Lock()
	err := d.store.Exec(ctx, req.ops, results)
	o.stamp(trace.StageExecute)
	if err != nil {
		d.mu.Unlock()
		return resp, err
	}
	// The store has applied; from here every exit must be an ack or a
	// crash. A logging failure after apply cannot be reported as an abort
	// — that would un-promise a state change the store already made.
	d.buf = append(d.buf[:0], recCommit)
	d.buf = binary.BigEndian.AppendUint64(d.buf, sess.id)
	d.buf = binary.BigEndian.AppendUint64(d.buf, req.seq)
	d.buf = binary.BigEndian.AppendUint16(d.buf, uint16(len(req.ops)))
	for _, op := range req.ops {
		d.buf = appendOp(d.buf, op)
	}
	lsn, err := d.log.Append(d.buf)
	if err != nil {
		d.mu.Unlock()
		d.fatal(err)
	}
	o.stamp(trace.StageWALAppend)
	resp = appendOKResp(resp, req.seq, results, o.wireStages(req))
	sess.lastSeq.Store(req.seq)
	sess.lastResp = append(sess.lastResp[:0], resp[frameHdr:]...)
	d.commitsSinceSnap++
	if d.snapEvery > 0 && d.commitsSinceSnap >= d.snapEvery {
		d.commitsSinceSnap = 0
		// Snapshot failures are survivable (the log still has
		// everything); wal counts them and we carry on.
		_ = d.log.Snapshot(d.snapshotPayloadLocked())
	}
	d.mu.Unlock()
	o.rearm()
	if err := d.log.SyncTo(lsn); err != nil {
		d.fatal(err)
	}
	o.stamp(trace.StageFsync)
	if ws := o.wireStages(req); ws != nil {
		// Re-encode so the wire block includes the fsync wait. The cached
		// replay keeps the pre-fsync block (the results are identical and
		// both parse the same).
		resp = appendOKResp(resp[:0], req.seq, results, ws)
	}
	return resp, nil
}

// logSessionOpen records a session grant. Synced under the ack policy like
// a commit: once the client holds the ID, a restart must still honour it.
func (d *Durable) logSessionOpen(id uint64) {
	d.mu.Lock()
	d.buf = append(d.buf[:0], recSessionOpen)
	d.buf = binary.BigEndian.AppendUint64(d.buf, id)
	lsn, err := d.log.Append(d.buf)
	d.mu.Unlock()
	if err != nil {
		d.fatal(err)
	}
	if err := d.log.SyncTo(lsn); err != nil {
		d.fatal(err)
	}
}

// logSessionClose records an explicit goodbye. Not synced — resurrecting
// a closed session after a crash is harmless (it idles out), so the close
// can ride the next group commit.
func (d *Durable) logSessionClose(id uint64) {
	d.mu.Lock()
	d.buf = append(d.buf[:0], recSessionClose)
	d.buf = binary.BigEndian.AppendUint64(d.buf, id)
	_, err := d.log.Append(d.buf)
	d.mu.Unlock()
	if err != nil {
		d.fatal(err)
	}
}

// snapshotPayloadLocked encodes the full recovery image: session table
// (with exactly-once caches), ID counter, then the store as one op per
// live entry. Caller holds d.mu, which excludes every writer of the
// fields read here.
func (d *Durable) snapshotPayloadLocked() []byte {
	var b []byte
	var nsess uint32
	lenAt := len(b)
	b = binary.BigEndian.AppendUint32(b, 0)
	d.sess.each(func(s *session) {
		nsess++
		b = binary.BigEndian.AppendUint64(b, s.id)
		b = binary.BigEndian.AppendUint64(b, s.lastSeq.Load())
		b = binary.BigEndian.AppendUint32(b, uint32(len(s.lastResp)))
		b = append(b, s.lastResp...)
	})
	binary.BigEndian.PutUint32(b[lenAt:], nsess)
	b = binary.BigEndian.AppendUint64(b, d.sess.counter())
	var nops uint32
	opsAt := len(b)
	b = binary.BigEndian.AppendUint32(b, 0)
	d.store.DumpOps(func(op Op) {
		nops++
		b = appendOp(b, op)
	})
	binary.BigEndian.PutUint32(b[opsAt:], nops)
	return b
}

// replay rebuilds store and session state from a recovery image: snapshot
// first, then the log tail in LSN order. Replay handlers are idempotent
// and create sessions on demand, so a snapshot taken between a session's
// open and its open record landing in the log still recovers exactly.
func (d *Durable) replay(rec *wal.Recovery) error {
	if rec.Snapshot != nil {
		if err := d.applySnapshot(rec.Snapshot); err != nil {
			return fmt.Errorf("txnet: snapshot at lsn %d: %w", rec.SnapshotLSN, err)
		}
	}
	results := make([]OpResult, 0, 64)
	for _, r := range rec.Records {
		if err := d.replayRecord(r, &results); err != nil {
			return fmt.Errorf("txnet: replaying lsn %d: %w", r.LSN, err)
		}
	}
	return nil
}

func (d *Durable) replayRecord(r wal.Record, results *[]OpResult) error {
	p := r.Payload
	if len(p) == 0 {
		return fmt.Errorf("empty record")
	}
	switch p[0] {
	case recSessionOpen:
		if len(p) != 9 {
			return fmt.Errorf("session-open record of %d bytes", len(p))
		}
		d.sess.restore(binary.BigEndian.Uint64(p[1:]))
		return nil
	case recSessionClose:
		if len(p) != 9 {
			return fmt.Errorf("session-close record of %d bytes", len(p))
		}
		d.sess.remove(binary.BigEndian.Uint64(p[1:]))
		return nil
	case recCommit:
		if len(p) < 1+8+8+2 {
			return fmt.Errorf("commit record of %d bytes", len(p))
		}
		id := binary.BigEndian.Uint64(p[1:])
		seq := binary.BigEndian.Uint64(p[9:])
		n := int(binary.BigEndian.Uint16(p[17:]))
		p = p[19:]
		if len(p) != n*opWireSize {
			return fmt.Errorf("commit body %d bytes for %d ops", len(p), n)
		}
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = parseOp(p[i*opWireSize:])
		}
		if cap(*results) < n {
			*results = make([]OpResult, n)
		}
		res := (*results)[:n]
		if err := d.store.Exec(context.Background(), ops, res); err != nil {
			return fmt.Errorf("re-executing: %w", err)
		}
		sess := d.sess.restore(id)
		if seq >= sess.lastSeq.Load() {
			sess.lastSeq.Store(seq)
			d.buf = appendOKResp(d.buf[:0], seq, res, nil)
			sess.lastResp = append(sess.lastResp[:0], d.buf[frameHdr:]...)
		}
		d.rec.CommitsReplayed++
		return nil
	default:
		return fmt.Errorf("unknown record kind %d", p[0])
	}
}

// applySnapshot decodes and applies one snapshot payload. Store ops are
// re-executed in batches so a huge store does not allocate one giant
// result slice.
func (d *Durable) applySnapshot(p []byte) error {
	if len(p) < 4 {
		return fmt.Errorf("short header")
	}
	nsess := int(binary.BigEndian.Uint32(p))
	p = p[4:]
	for i := 0; i < nsess; i++ {
		if len(p) < 20 {
			return fmt.Errorf("truncated session %d", i)
		}
		id := binary.BigEndian.Uint64(p)
		lastSeq := binary.BigEndian.Uint64(p[8:])
		n := int(binary.BigEndian.Uint32(p[16:]))
		p = p[20:]
		if len(p) < n {
			return fmt.Errorf("truncated session %d response", i)
		}
		s := d.sess.restore(id)
		s.lastSeq.Store(lastSeq)
		if n > 0 {
			s.lastResp = append([]byte(nil), p[:n]...)
		}
		p = p[n:]
	}
	if len(p) < 12 {
		return fmt.Errorf("truncated trailer")
	}
	d.sess.setNextID(binary.BigEndian.Uint64(p))
	nops := int(binary.BigEndian.Uint32(p[8:]))
	p = p[12:]
	if len(p) != nops*opWireSize {
		return fmt.Errorf("store dump %d bytes for %d ops", len(p), nops)
	}
	const batch = 1024
	ops := make([]Op, 0, batch)
	results := make([]OpResult, batch)
	flush := func() error {
		if len(ops) == 0 {
			return nil
		}
		if err := d.store.Exec(context.Background(), ops, results[:len(ops)]); err != nil {
			return fmt.Errorf("rebuilding store: %w", err)
		}
		ops = ops[:0]
		return nil
	}
	for i := 0; i < nops; i++ {
		ops = append(ops, parseOp(p[i*opWireSize:]))
		if len(ops) == batch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}
