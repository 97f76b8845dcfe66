package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos/failpoint"
)

// Durability failpoints. All four convert their injected panic into an
// error at the package boundary (see injectedHit): the caller observes a
// failed append/fsync/snapshot/replay, exactly what a sick disk produces.
var (
	// fpAppendTorn fires mid-record: the header and first half of the
	// payload are flushed to the file before the fault, leaving a torn
	// record on disk — the residue recovery must truncate.
	fpAppendTorn = failpoint.New("wal.append.torn")
	// fpFsyncFail fires in the fsync wrapper, before the kernel sync —
	// modeling an fsync error, after which the log refuses further work
	// (a failed fsync leaves the page cache in an unknown state; retrying
	// would be the classic fsyncgate bug).
	fpFsyncFail = failpoint.New("wal.fsync.fail")
	// fpSnapshotPartial fires halfway through writing a snapshot's payload
	// to its temp file; the half-written temp must never be loaded.
	fpSnapshotPartial = failpoint.New("wal.snapshot.partial")
	// fpReplayStall fires once per record scanned during Open (delay
	// stretches the recovery window so a second crash can land inside it).
	fpReplayStall = failpoint.New("wal.replay.stall")
)

// Policy selects when appended records are fsynced.
type Policy int

// Sync policies, from strongest to weakest.
const (
	// SyncAlways makes SyncTo block until the record is on disk; an
	// acknowledgement sent after SyncTo can never be lost to a crash.
	SyncAlways Policy = iota
	// SyncInterval flushes and fsyncs on a background cadence
	// (Options.Interval); a crash, of the process or of the machine, loses
	// at most one interval of acknowledged work.
	SyncInterval
	// SyncNever never fsyncs and never flushes on its own. An appended
	// record sits in the log's 64 KB user-space buffer until Sync, a
	// snapshot, Close or a full buffer writes it to the kernel, so a
	// process crash (SIGKILL) loses the acknowledged tail still in the
	// buffer: up to about 1,170 records of 56 bytes. A machine crash may
	// lose everything since the last snapshot.
	SyncNever
)

// String returns the policy's flag syntax ("always", "interval", "never").
func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy parses the -fsync flag syntax.
func ParsePolicy(s string) (Policy, error) {
	switch strings.TrimSpace(s) {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (always, interval or never)", s)
	}
}

// Options configure Open.
type Options struct {
	// Policy is the fsync policy (default SyncAlways — the zero value must
	// be the safe one).
	Policy Policy
	// Interval is the SyncInterval cadence (default 2ms).
	Interval time.Duration
}

// Record is one replayed log record.
type Record struct {
	LSN     uint64
	Payload []byte
}

// Recovery reports what Open reconstructed.
type Recovery struct {
	// Snapshot is the newest valid snapshot payload, nil if none.
	Snapshot []byte
	// SnapshotLSN is the last LSN the snapshot covers (0 without one).
	SnapshotLSN uint64
	// Records are the replayed records beyond the snapshot, in LSN order.
	Records []Record
	// TornTail is true when a torn or corrupt final record was truncated.
	TornTail bool
	// SnapshotsSkipped counts snapshot files that failed validation.
	SnapshotsSkipped int
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// On-disk layout. Segments are named by the LSN of their first record so
// recovery orders them lexically; a record is a u32 body length, a u32
// CRC-32C of the body, and the body (u64 LSN, payload). Snapshots carry a
// magic, version, covered LSN, and a CRC-32C'd payload; they are written
// to a .tmp name, fsynced, and renamed, so a snapshot file that exists
// under its final name is complete unless the disk itself corrupted it.
const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"

	recHeaderSize = 8 // u32 len + u32 crc
	// MaxRecordSize bounds one record's payload (4× the wire frame limit,
	// so any single transaction the server accepts fits with headroom).
	MaxRecordSize = 4 << 20

	snapMagic   = 0x57414c53 // "WALS"
	snapVersion = 1
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func segName(firstLSN uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, firstLSN, segSuffix) }
func snapName(snapLSN uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, snapLSN, snapSuffix)
}

// segMeta tracks one on-disk segment: its first LSN and the first LSN of
// the next segment (== nextLSN for the active one). A segment is covered
// by a snapshot at LSN s iff next <= s+1.
type segMeta struct {
	first uint64
	name  string
}

// Log is an open write-ahead log. Append/SyncTo/Snapshot are safe for
// concurrent use.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex // file, buffer, LSN counter, segment list
	f       *os.File
	w       *bufio.Writer
	nextLSN uint64
	segs    []segMeta // sorted by first; last is the active segment
	snapLSN uint64    // newest durable snapshot
	err     error     // sticky: first append/flush failure poisons the log
	closed  bool

	// Group commit: one syncer runs at a time; others wait on the cond
	// until syncedLSN covers them or the syncer errs.
	syncMu    sync.Mutex
	syncCond  *sync.Cond
	syncing   bool
	syncedLSN uint64
	syncErr   error // sticky

	stop chan struct{} // interval ticker shutdown
	done chan struct{}
}

// injectedHit fires fp and converts an injected panic into an error, so
// wal's callers always see fault injection as I/O failure.
func injectedHit(fp *failpoint.FP) (err error) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if pv, ok := p.(*failpoint.PanicValue); ok {
			err = pv
			return
		}
		panic(p)
	}()
	fp.Hit()
	return nil
}

// Append writes one record and returns its LSN. The record is buffered;
// it is durable per the sync policy (call SyncTo for SyncAlways). The
// first failed append poisons the log: every later call returns the same
// error, so nothing can be written after a torn record.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) == 0 || len(payload) > MaxRecordSize {
		return 0, fmt.Errorf("wal: record payload of %d bytes (want 1..%d)", len(payload), MaxRecordSize)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	lsn := l.nextLSN
	var hdr [recHeaderSize + 8]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(8+len(payload)))
	binary.BigEndian.PutUint64(hdr[8:], lsn)
	crc := crc32.Update(0, crcTable, hdr[8:16])
	crc = crc32.Update(crc, crcTable, payload)
	binary.BigEndian.PutUint32(hdr[4:], crc)

	write := func(b []byte) bool {
		if l.err == nil {
			if _, werr := l.w.Write(b); werr != nil {
				l.poisonLocked(fmt.Errorf("wal: append: %w", werr))
			}
		}
		return l.err == nil
	}
	if fpAppendTorn.Armed() && len(payload) >= 2 {
		// Flush the header and half the payload so the fault leaves real
		// torn bytes on disk, then fire. If the failpoint does not trigger
		// on this hit, complete the record normally.
		half := len(payload) / 2
		if !write(hdr[:]) || !write(payload[:half]) {
			return 0, l.err
		}
		if ferr := l.w.Flush(); ferr != nil {
			l.poisonLocked(fmt.Errorf("wal: append: %w", ferr))
			return 0, l.err
		}
		if ierr := injectedHit(fpAppendTorn); ierr != nil {
			l.poisonLocked(fmt.Errorf("wal: append torn: %w", ierr))
			return 0, l.err
		}
		if !write(payload[half:]) {
			return 0, l.err
		}
	} else {
		if !write(hdr[:]) || !write(payload) {
			return 0, l.err
		}
	}
	l.nextLSN++
	stats.appends.Add(1)
	stats.appendedBytes.Add(uint64(recHeaderSize + 8 + len(payload)))
	return lsn, nil
}

// poisonLocked records the log's first fatal error (mu held) and mirrors
// it to the sync side so blocked SyncTo callers fail too.
func (l *Log) poisonLocked(err error) {
	if l.err == nil {
		l.err = err
	}
	l.syncMu.Lock()
	if l.syncErr == nil {
		l.syncErr = err
	}
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
}

// SyncTo blocks until the record at lsn is durable per the policy. Under
// SyncAlways concurrent callers are batched behind a single fsync (group
// commit); under SyncInterval and SyncNever it only surfaces a poisoned
// log, without waiting.
func (l *Log) SyncTo(lsn uint64) error {
	if l.opts.Policy != SyncAlways {
		l.mu.Lock()
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.syncMu.Lock()
	for {
		if l.syncErr != nil {
			err := l.syncErr
			l.syncMu.Unlock()
			return err
		}
		if l.syncedLSN >= lsn {
			l.syncMu.Unlock()
			return nil
		}
		if !l.syncing {
			break
		}
		l.syncCond.Wait()
	}
	l.syncing = true
	l.syncMu.Unlock()
	return l.syncNow()
}

// Sync forces a flush + fsync regardless of policy.
func (l *Log) Sync() error {
	l.syncMu.Lock()
	for l.syncing {
		if l.syncErr != nil {
			err := l.syncErr
			l.syncMu.Unlock()
			return err
		}
		l.syncCond.Wait()
	}
	l.syncing = true
	l.syncMu.Unlock()
	return l.syncNow()
}

// syncNow runs one flush+fsync round as the claimed syncer and publishes
// the result. Callers must have set l.syncing under syncMu.
func (l *Log) syncNow() error {
	l.mu.Lock()
	var (
		err    error
		target uint64
	)
	if l.closed {
		err = ErrClosed
	} else if l.err != nil {
		err = l.err
	} else if ferr := l.w.Flush(); ferr != nil {
		l.poisonLocked(fmt.Errorf("wal: flush: %w", ferr))
		err = l.err
	} else {
		target = l.nextLSN - 1
	}
	f := l.f
	l.mu.Unlock()

	if err == nil {
		// fsync outside l.mu so appenders are not blocked behind the disk;
		// the file cannot be rotated away because Snapshot also claims the
		// syncer role.
		err = l.fsyncFile(f)
		if err != nil {
			l.mu.Lock()
			l.poisonLocked(err)
			l.mu.Unlock()
		}
	}

	l.syncMu.Lock()
	if err != nil {
		if l.syncErr == nil {
			l.syncErr = err
		}
	} else if target > l.syncedLSN {
		l.syncedLSN = target
	}
	l.syncing = false
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
	return err
}

// fsyncFile syncs one file, observing latency and the fsync failpoint.
func (l *Log) fsyncFile(f *os.File) error {
	if ierr := injectedHit(fpFsyncFail); ierr != nil {
		return fmt.Errorf("wal: fsync: %w", ierr)
	}
	start := time.Now()
	err := f.Sync()
	fsyncLatency.Observe(time.Since(start).Nanoseconds())
	stats.fsyncs.Add(1)
	if err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// SyncedLSN reports the highest LSN known durable via SyncAlways group
// commit (0 under other policies until Sync/Close).
func (l *Log) SyncedLSN() uint64 {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.syncedLSN
}

// NextLSN reports the LSN the next Append will return.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// Snapshot supersedes the appended history with payload, which must
// describe the caller's state after every record appended so far (callers
// serialize their appends against Snapshot; txnet holds its commit mutex
// across both). The snapshot is fsynced before any log truncation, under
// every policy — weaker fsync policies bound the window of lost recent
// commits, never the integrity of a truncation. On error the log is
// untouched and still usable (a failed snapshot is retried later).
func (l *Log) Snapshot(payload []byte) error {
	// Claim the syncer role so the active file is not mid-fsync while we
	// rotate it.
	l.syncMu.Lock()
	for l.syncing {
		l.syncCond.Wait()
	}
	l.syncing = true
	l.syncMu.Unlock()
	release := func() {
		l.syncMu.Lock()
		l.syncing = false
		l.syncCond.Broadcast()
		l.syncMu.Unlock()
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	defer release()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if ferr := l.w.Flush(); ferr != nil {
		l.poisonLocked(fmt.Errorf("wal: flush: %w", ferr))
		return l.err
	}
	snapLSN := l.nextLSN - 1

	if err := writeSnapshotFile(l.dir, snapLSN, payload); err != nil {
		stats.snapshotErrs.Add(1)
		return err
	}

	// Rotate: the old segment is fully covered by the snapshot, the new
	// one starts at nextLSN.
	old := l.f
	if err := old.Close(); err != nil {
		l.poisonLocked(fmt.Errorf("wal: rotate: %w", err))
		return l.err
	}
	nf, err := os.OpenFile(filepath.Join(l.dir, segName(l.nextLSN)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		l.poisonLocked(fmt.Errorf("wal: rotate: %w", err))
		return l.err
	}
	l.f = nf
	l.w.Reset(nf)
	covered := l.segs
	l.segs = []segMeta{{first: l.nextLSN, name: segName(l.nextLSN)}}
	if err := fsyncDir(l.dir); err != nil {
		l.poisonLocked(err)
		return l.err
	}

	// Truncate: every prior segment and snapshot is superseded.
	for _, s := range covered {
		if s.name == segName(l.nextLSN) {
			continue
		}
		if os.Remove(filepath.Join(l.dir, s.name)) == nil {
			stats.segmentsDeleted.Add(1)
		}
	}
	removeOldSnapshots(l.dir, snapLSN)

	l.snapLSN = snapLSN
	stats.snapshots.Add(1)

	l.syncMu.Lock()
	if snapLSN > l.syncedLSN {
		l.syncedLSN = snapLSN
	}
	l.syncMu.Unlock()
	return nil
}

// Close flushes, fsyncs and closes the log. A poisoned log closes without
// further writes and returns its first error.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.mu.Unlock()
	if l.stop != nil {
		close(l.stop)
		<-l.done
	}
	var err error
	l.mu.Lock()
	if l.err != nil {
		err = l.err
	} else if ferr := l.w.Flush(); ferr != nil {
		err = ferr
	}
	l.closed = true
	f := l.f
	l.mu.Unlock()
	if err == nil {
		err = l.fsyncFile(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	l.syncMu.Lock()
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
	return err
}

// intervalLoop is the SyncInterval background syncer.
func (l *Log) intervalLoop() {
	defer close(l.done)
	tick := time.NewTicker(l.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-tick.C:
			l.syncMu.Lock()
			if l.syncing || l.syncErr != nil {
				l.syncMu.Unlock()
				continue
			}
			l.syncing = true
			l.syncMu.Unlock()
			_ = l.syncNow() // errors poison the log; appenders see them
		}
	}
}

// fsyncDir fsyncs a directory so renames and creates within it are
// durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: fsync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: fsync dir: %w", err)
	}
	return nil
}
