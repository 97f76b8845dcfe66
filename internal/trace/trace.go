// Package trace is the transaction flight recorder: a low-overhead, sampled
// event tracer that records *where* time goes inside a transaction — the
// optimistic traversal, commit-time locking and validation, semantic aborts,
// contention-manager pauses, serial-mode escalations and hardware/software
// fallbacks — and *which* key or node each conflict is attributable to.
//
// It complements package telemetry: telemetry aggregates (how often does
// NOrec abort?), the flight recorder attributes (which key, which phase,
// which attempt). Together they are the observability layer the tuning PRs
// build on.
//
// Design constraints, in the same order as telemetry's:
//
//  1. Near-zero cost when disabled. Every runtime is wired unconditionally,
//     so the begin-transaction fast path is exactly one atomic load of the
//     recorder's enabled flag, and every other recording call is one
//     predictable branch on a descriptor-local field (the sampled-span id).
//     Nil *Source and nil *Local are valid no-op recorders.
//  2. No allocation on the hot path. Sampled transactions write fixed-size
//     event slots into per-P ring buffers (one ring per GOMAXPROCS slot,
//     assigned to descriptors round-robin, so a ring is effectively
//     goroutine-local while a transaction runs). A slot is published with a
//     per-slot sequence word, seqlock-style, so readers — and crash-recovery
//     tests — can always tell a torn or in-flight slot from a valid one.
//  3. Readers never stop writers. Snapshot walks the rings with atomic
//     loads and skips anything mid-write; the conflict table is a fixed
//     open-addressed array of atomic counters.
//
// On top of the recorder sit four consumers:
//
//   - the conflict attribution table (per-runtime top-K contended keys with
//     abort counts and sampled wait-time sums), also appended to
//     telemetry.WriteTable output as a "hot keys" section;
//   - the Perfetto / Chrome trace-event exporter (WritePerfetto): one
//     process per runtime, one track per descriptor, one slice per attempt
//     phase — load the JSON in ui.perfetto.dev;
//   - the last-N-aborts dump (WriteAborts), read back from the rings, for
//     failure triage;
//   - the live debug endpoint (Serve): snapshot, conflict table, Perfetto
//     dump, expvar and pprof on one mux.
//
// Typical wiring (see internal/stm/norec for the real thing):
//
//	src := trace.S("NOrec")            // source from the Default recorder
//	tr  := src.Local()                 // one per pooled tx descriptor
//	tr.TxStart()                       // the one atomic check when disabled
//	... tr.AttemptStart / tr.ValidateFail(key) / tr.Abort(reason) ...
//	tr.TxEnd()
package trace

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/abort"
)

// Kind is the type of one recorded event. The taxonomy is shared by every
// runtime so traces compose across algorithms.
type Kind uint8

// Event kinds, roughly in transaction-lifecycle order.
const (
	// EvTxStart opens a sampled transaction (one per Atomic call).
	EvTxStart Kind = iota
	// EvAttemptStart opens one optimistic attempt; Attempt carries the
	// 1-based attempt ordinal.
	EvAttemptStart
	// EvRead is a read/traversal operation; Key is the searched key (OTB)
	// or the cell id (memory STMs).
	EvRead
	// EvLock is a semantic or ownership lock acquisition; Key names the
	// locked node or orec.
	EvLock
	// EvLockBusy is a lock found busy (the acquisition failed and the
	// attempt will abort with the lock-busy or timeout reason).
	EvLockBusy
	// EvUnlock is a lock release.
	EvUnlock
	// EvValidate is a whole-read-set validation that passed.
	EvValidate
	// EvValidateFail is a validation failure; Key names the failing entry.
	EvValidateFail
	// EvPause is the contention-manager pause between an abort and the next
	// attempt; Arg is the pause duration in nanoseconds.
	EvPause
	// EvFallback marks a fall-through to a slow path (HTM software
	// fallback).
	EvFallback
	// EvEscalate marks serial-mode escalation after an exhausted retry
	// budget.
	EvEscalate
	// EvCommitBegin opens the commit phase (locking + validation +
	// publication).
	EvCommitBegin
	// EvCommitEnd closes a successful commit phase.
	EvCommitEnd
	// EvAbort records an aborted attempt: Reason classifies it, Key is the
	// attributed conflict key (0 = unattributed), Arg is the attempt's
	// lifetime in nanoseconds.
	EvAbort
	// EvTxEnd closes a sampled transaction.
	EvTxEnd
	// EvQueueWait is time a committing client spent waiting for a server
	// verdict (RTC/RInval); Arg is the wait in nanoseconds.
	EvQueueWait
	// EvExecute is server-side commit execution time (RTC/RInval); Arg is
	// the duration in nanoseconds.
	EvExecute
	// EvHWAttempt opens one emulated-hardware attempt (hybrid HTM).
	EvHWAttempt
	// EvReqStart opens a networked-request span under a wire-propagated
	// trace id (the Span field); Arg carries the parent span id.
	EvReqStart
	// EvStage is one completed request lifecycle stage; Key is the Stage
	// code, Arg the duration in nanoseconds (the event timestamp is the
	// stage's end).
	EvStage
	// EvResend marks a same-sequence resend of a request after a
	// connection failure (the exactly-once retry path); Arg is the resend
	// ordinal when known.
	EvResend
	// EvReqEnd closes a networked-request span.
	EvReqEnd

	numKinds
)

// String returns the kind's name as used in exports.
func (k Kind) String() string {
	names := [...]string{
		EvTxStart: "tx-start", EvAttemptStart: "attempt", EvRead: "read",
		EvLock: "lock", EvLockBusy: "lock-busy", EvUnlock: "unlock",
		EvValidate: "validate", EvValidateFail: "validate-fail",
		EvPause: "cm-pause", EvFallback: "fallback", EvEscalate: "escalate",
		EvCommitBegin: "commit", EvCommitEnd: "commit-end", EvAbort: "abort",
		EvTxEnd: "tx-end", EvQueueWait: "queue-wait", EvExecute: "execute",
		EvHWAttempt: "hw-attempt", EvReqStart: "req-start", EvStage: "stage",
		EvResend: "resend", EvReqEnd: "req-end",
	}
	if int(k) < len(names) && names[k] != "" {
		return names[k]
	}
	return "unknown"
}

// Stage identifies one phase of a networked request's lifecycle, shared by
// the txnet client and server so a cross-process trace composes into one
// timeline. Stage codes travel in EvStage events (Key field) and in the wire
// response's stage block.
type Stage uint8

// Request lifecycle stages, in causal order.
const (
	// StageQueue is client-side encode + socket write.
	StageQueue Stage = iota
	// StageNet is wire time: the client's round trip minus the server-side
	// stages it learned from the response.
	StageNet
	// StageDispatch is server-side frame receipt to session lock held.
	StageDispatch
	// StageAdmission is the admission-slot wait (including a shed verdict).
	StageAdmission
	// StageExecute is store execution of the transaction body.
	StageExecute
	// StageWALAppend is the write-ahead-log append (durable servers).
	StageWALAppend
	// StageFsync is the group-commit fsync wait (durable servers).
	StageFsync
	// StageAck is response encode + socket write back to the client.
	StageAck

	// NumStages sizes per-request stage arrays.
	NumStages
)

// String returns the stage's name as used in exports and metric labels.
func (s Stage) String() string {
	names := [NumStages]string{
		StageQueue: "queue", StageNet: "net", StageDispatch: "dispatch",
		StageAdmission: "admission", StageExecute: "execute",
		StageWALAppend: "wal-append", StageFsync: "fsync", StageAck: "ack",
	}
	if s < NumStages {
		return names[s]
	}
	return "unknown"
}

// Event is one decoded flight-recorder event, as returned by Snapshot.
type Event struct {
	// Seq is the global publication order (monotone across all rings).
	Seq uint64
	// TS is the recorder-clock timestamp in nanoseconds.
	TS int64
	// Span identifies the sampled transaction the event belongs to.
	Span uint64
	// Track identifies the recording descriptor (the export's thread lane).
	Track uint16
	// Runtime is the owning source's (algorithm) name.
	Runtime string
	// Kind is the event type.
	Kind Kind
	// Reason classifies EvAbort events.
	Reason abort.Reason
	// Attempt is the 1-based attempt ordinal the event occurred in.
	Attempt uint16
	// Key is the involved key/node/cell id (0 = none).
	Key uint64
	// Arg is the kind-specific argument (durations in nanoseconds).
	Arg uint64
}

// Recorder is a flight-recorder instance: a set of per-P event rings, the
// named sources recording into them, and the conflict attribution table.
// The zero value is not usable; call NewRecorder.
type Recorder struct {
	on      atomic.Bool
	every   atomic.Uint64 // sample 1 in every transactions (min 1)
	txCtr   atomic.Uint64 // sampling counter
	spanSeq atomic.Uint64 // sampled-transaction ids
	evSeq   atomic.Uint64 // global event publication order
	tracks  atomic.Uint32 // Local (track) id assignment
	nextRng atomic.Uint32 // round-robin ring assignment

	clock atomic.Pointer[func() int64]

	rings []ring

	mu      sync.Mutex
	sources map[string]*Source
	names   []string // source name by id
}

// defaultRingSlots is the per-ring slot count: deep enough to hold several
// milliseconds of a contended run, small enough (64 B/slot) that the whole
// recorder stays around a megabyte.
const defaultRingSlots = 2048

// NewRecorder creates a disabled recorder with one ring per GOMAXPROCS
// slot.
func NewRecorder() *Recorder {
	return NewRecorderSized(runtime.GOMAXPROCS(0), defaultRingSlots)
}

// NewRecorderSized creates a disabled recorder with nrings rings of the
// given slot count (rounded up to a power of two). Tests use small sizes to
// exercise wrap-around.
func NewRecorderSized(nrings, slots int) *Recorder {
	if nrings < 1 {
		nrings = 1
	}
	size := 1
	for size < slots {
		size *= 2
	}
	r := &Recorder{
		rings:   make([]ring, nrings),
		sources: make(map[string]*Source),
	}
	for i := range r.rings {
		r.rings[i].slots = make([]slot, size)
		r.rings[i].mask = uint64(size - 1)
	}
	r.every.Store(1)
	now := func() int64 { return time.Now().UnixNano() }
	r.clock.Store(&now)
	return r
}

// SetClock replaces the recorder's timestamp source (tests use a
// deterministic counter so exports are golden-testable). Safe to call
// concurrently, but intended for setup.
func (r *Recorder) SetClock(f func() int64) {
	if f != nil {
		r.clock.Store(&f)
	}
}

func (r *Recorder) now() int64 { return (*r.clock.Load())() }

// SetEnabled turns recording on or off. Disabled is the production default:
// every wired call site reduces to one atomic load (TxStart) or one
// predictable branch (everything else).
func (r *Recorder) SetEnabled(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// Enabled reports whether the recorder is armed.
func (r *Recorder) Enabled() bool { return r != nil && r.on.Load() }

// SetSampleEvery makes the recorder trace one in every n transactions
// (n <= 1 traces every transaction). Sampling keeps the enabled overhead
// proportional: unsampled transactions pay one counter increment.
func (r *Recorder) SetSampleEvery(n uint64) {
	if r == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	r.every.Store(n)
}

// SampleEvery returns the current sampling divisor.
func (r *Recorder) SampleEvery() uint64 {
	if r == nil {
		return 1
	}
	return r.every.Load()
}

// Source returns the recorder's source with the given name (one per
// algorithm), creating it on first use. A nil recorder returns a nil
// (no-op) source.
func (r *Recorder) Source(name string) *Source {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sources[name]
	if !ok {
		s = &Source{r: r, id: uint16(len(r.names)), name: name}
		r.sources[name] = s
		r.names = append(r.names, name)
	}
	return s
}

// sourceName resolves a source id to its name ("" if unknown).
func (r *Recorder) sourceName(id uint16) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(id) < len(r.names) {
		return r.names[id]
	}
	return ""
}

// sourceList returns the sources sorted by name.
func (r *Recorder) sourceList() []*Source {
	r.mu.Lock()
	out := make([]*Source, 0, len(r.sources))
	for _, s := range r.sources {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Snapshot decodes every valid event currently held in the rings, ordered
// by publication sequence. It is wait-free with respect to writers: slots
// mid-write (or torn by a crash between field stores) fail the per-slot
// sequence check and are skipped.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for i := range r.rings {
		out = r.rings[i].collect(r, out)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Reset discards all recorded events and conflict attributions. Counters
// (span ids, sequence numbers) keep advancing so snapshots from different
// windows never alias.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for i := range r.rings {
		r.rings[i].reset()
	}
	for _, s := range r.sourceList() {
		s.conflicts.reset()
	}
}

// Source is the recording identity of one transactional runtime. Sources
// are shared by every instance of the algorithm; a nil *Source is a valid
// no-op recorder.
type Source struct {
	r         *Recorder
	id        uint16
	name      string
	conflicts conflictTable
}

// Name returns the source's (algorithm) name.
func (s *Source) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Local returns a recording handle bound to one ring of the recorder,
// assigned round-robin. Hold one per transaction descriptor (descriptors
// are pooled per-P, so the ring stays effectively goroutine-local). A nil
// source returns a nil Local, which is a valid no-op recorder.
func (s *Source) Local() *Local {
	if s == nil {
		return nil
	}
	r := s.r
	i := r.nextRng.Add(1) - 1
	return &Local{
		src:   s,
		ring:  &r.rings[int(i)%len(r.rings)],
		track: uint16(r.tracks.Add(1)),
	}
}

// Local is a ring-bound recording handle. All methods are nil-safe; while
// the recorder is disabled (or the current transaction was not sampled)
// every method is a no-op costing one predictable branch. A Local is owned
// by one goroutine at a time (the descriptor-pool discipline).
type Local struct {
	src   *Source
	ring  *ring
	track uint16

	span      uint64 // nonzero while the current transaction is sampled
	attempt   uint16
	attemptTS int64  // recorder-clock ns at attempt start
	pauseTS   int64  // set at abort; next attempt emits the CM pause
	lastKey   uint64 // last conflict-attributed key (consumed by Abort)
}

// emit writes one event slot for the current span.
func (l *Local) emit(k Kind, reason abort.Reason, key, arg uint64) {
	l.emitAt(l.src.r.now(), k, reason, key, arg)
}

func (l *Local) emitAt(ts int64, k Kind, reason abort.Reason, key, arg uint64) {
	meta := uint64(k) | uint64(uint8(reason))<<8 |
		uint64(l.attempt)<<16 | uint64(l.src.id)<<32 | uint64(l.track)<<48
	l.ring.write(l.src.r, ts, l.span, meta, key, arg)
}

// TxStart begins a transaction: the one atomic check every transaction
// pays while the recorder is disabled. When enabled it counts the
// transaction against the sampling divisor and, if selected, opens a span
// that every subsequent call on this Local records into until TxEnd.
func (l *Local) TxStart() {
	if l == nil {
		return
	}
	r := l.src.r
	if !r.on.Load() {
		l.span = 0
		return
	}
	n := r.txCtr.Add(1)
	if every := r.every.Load(); every > 1 && n%every != 0 {
		l.span = 0
		return
	}
	l.span = r.spanSeq.Add(1)
	l.attempt = 0
	l.attemptTS = 0
	l.pauseTS = 0
	l.lastKey = 0
	l.emit(EvTxStart, 0, 0, 0)
}

// TxEnd closes the sampled span (no-op when the transaction was not
// sampled). Call it on every exit path, including cancellation and
// re-raised panics; the runtimes put it next to their descriptor-pool
// returns.
func (l *Local) TxEnd() {
	if l == nil || l.span == 0 {
		return
	}
	l.emit(EvTxEnd, 0, 0, 0)
	l.span = 0
}

// AttemptStart opens one optimistic attempt. If the previous attempt
// aborted, the time since the abort is emitted first as the
// contention-manager pause.
func (l *Local) AttemptStart() {
	if l == nil || l.span == 0 {
		return
	}
	now := l.src.r.now()
	if l.pauseTS != 0 {
		if d := now - l.pauseTS; d > 0 {
			l.emitAt(now, EvPause, 0, 0, uint64(d))
		}
		l.pauseTS = 0
	}
	l.attempt++
	l.attemptTS = now
	l.emitAt(now, EvAttemptStart, 0, 0, uint64(l.attempt))
}

// Op records one read/traversal operation on key.
func (l *Local) Op(key uint64) {
	if l == nil || l.span == 0 {
		return
	}
	l.emit(EvRead, 0, key, 0)
}

// Lock records acquiring the lock guarding key.
func (l *Local) Lock(key uint64) {
	if l == nil || l.span == 0 {
		return
	}
	l.emit(EvLock, 0, key, 0)
}

// Unlock records releasing the lock guarding key.
func (l *Local) Unlock(key uint64) {
	if l == nil || l.span == 0 {
		return
	}
	l.emit(EvUnlock, 0, key, 0)
}

// Validated records a whole-read-set validation that passed.
func (l *Local) Validated() {
	if l == nil || l.span == 0 {
		return
	}
	l.emit(EvValidate, 0, 0, 0)
}

// CommitBegin opens the commit phase (lock acquisition, final validation,
// publication).
func (l *Local) CommitBegin() {
	if l == nil || l.span == 0 {
		return
	}
	l.emit(EvCommitBegin, 0, 0, 0)
}

// CommitEnd closes a successful commit phase.
func (l *Local) CommitEnd() {
	if l == nil || l.span == 0 {
		return
	}
	l.emit(EvCommitEnd, 0, 0, 0)
}

// HWAttempt opens one emulated-hardware attempt (hybrid HTM).
func (l *Local) HWAttempt(n int) {
	if l == nil || l.span == 0 {
		return
	}
	l.attempt = uint16(n)
	l.attemptTS = l.src.r.now()
	l.emitAt(l.attemptTS, EvHWAttempt, 0, 0, uint64(n))
}

// Fallback records a fall-through to a slow path (HTM software fallback).
func (l *Local) Fallback() {
	if l == nil || l.span == 0 {
		return
	}
	l.emit(EvFallback, 0, 0, 0)
}

// Escalated records serial-mode escalation.
func (l *Local) Escalated() {
	if l == nil || l.span == 0 {
		return
	}
	l.emit(EvEscalate, 0, 0, 0)
}

// LockBusy notes that the lock guarding key was found busy. The key is
// remembered and attributed by the abort that follows; sampled spans also
// record the event. It runs on abort paths only, so the extra atomic load
// (for attribution of unsampled transactions) is off the hot path.
func (l *Local) LockBusy(key uint64) {
	if l == nil {
		return
	}
	if l.span != 0 {
		l.lastKey = key
		l.emit(EvLockBusy, 0, key, 0)
		return
	}
	if l.src.r.on.Load() {
		l.lastKey = key
	}
}

// ValidateFail notes a validation failure on the entry guarding key; like
// LockBusy it feeds the conflict attribution of the abort that follows.
func (l *Local) ValidateFail(key uint64) {
	if l == nil {
		return
	}
	if l.span != 0 {
		l.lastKey = key
		l.emit(EvValidateFail, 0, key, 0)
		return
	}
	if l.src.r.on.Load() {
		l.lastKey = key
	}
}

// NoteKey attributes the next abort to key without emitting an event (for
// call sites that only know the key, not the failure mode).
func (l *Local) NoteKey(key uint64) {
	if l == nil {
		return
	}
	if l.span != 0 || l.src.r.on.Load() {
		l.lastKey = key
	}
}

// Abort records one aborted attempt: the event (sampled spans; the
// last-N-aborts dump reads it back) and the conflict-table attribution under
// the last noted key (every transaction while the recorder is enabled).
func (l *Local) Abort(reason abort.Reason) {
	if l == nil {
		return
	}
	key := l.lastKey
	l.lastKey = 0
	r := l.src.r
	if l.span != 0 {
		now := r.now()
		var wait uint64
		if l.attemptTS != 0 && now > l.attemptTS {
			wait = uint64(now - l.attemptTS)
		}
		l.emitAt(now, EvAbort, reason, key, wait)
		l.pauseTS = now
		if key != 0 {
			l.src.conflicts.note(key, wait)
		}
		return
	}
	if !r.on.Load() {
		return
	}
	if key != 0 {
		l.src.conflicts.note(key, 0)
	}
}

// Draw counts one request against the sampling divisor without opening a
// span. The txnet client uses it to decide whether a request carries a wire
// trace id; the verdict then travels to the server, which opens its span on
// the propagated id rather than drawing again. Costs one atomic load while
// the recorder is disabled.
func (l *Local) Draw() bool {
	if l == nil {
		return false
	}
	r := l.src.r
	if !r.on.Load() {
		return false
	}
	n := r.txCtr.Add(1)
	if every := r.every.Load(); every > 1 && n%every != 0 {
		return false
	}
	return true
}

// SpanOpen opens a request span under an explicit id — the wire-propagated
// trace id — bypassing the sampling draw (the id's presence IS the sampling
// verdict, made once at the client). parent is the opening peer's span id
// (zero for a root span). A zero id, nil Local or disabled recorder leaves
// the span closed; every later call stays a one-branch no-op.
func (l *Local) SpanOpen(id, parent uint64) {
	if l == nil {
		return
	}
	if id == 0 || !l.src.r.on.Load() {
		l.span = 0
		return
	}
	l.span = id
	l.attempt = 0
	l.attemptTS = 0
	l.pauseTS = 0
	l.lastKey = 0
	l.emit(EvReqStart, 0, 0, parent)
}

// SpanActive reports whether a request span is open on this Local.
func (l *Local) SpanActive() bool { return l != nil && l.span != 0 }

// SpanClose closes the request span opened by SpanOpen (no-op otherwise).
func (l *Local) SpanClose() {
	if l == nil || l.span == 0 {
		return
	}
	l.emit(EvReqEnd, 0, 0, 0)
	l.span = 0
}

// Stage records a completed request lifecycle stage of d nanoseconds ending
// now. Non-positive durations are dropped.
func (l *Local) Stage(st Stage, d int64) {
	if l == nil || l.span == 0 || d <= 0 {
		return
	}
	l.emit(EvStage, 0, uint64(st), uint64(d))
}

// Resend marks the open request span as a same-sequence resend (the
// exactly-once retry path); n is the resend ordinal when known.
func (l *Local) Resend(n int) {
	if l == nil || l.span == 0 {
		return
	}
	l.emit(EvResend, 0, 0, uint64(n))
}

// Now returns the recorder clock when the current transaction is sampled,
// or zero: the start stamp for QueueWait / Execute phases.
func (l *Local) Now() int64 {
	if l == nil || l.span == 0 {
		return 0
	}
	return l.src.r.now()
}

// QueueWait records the time since start (a Now stamp) as client-side
// queue wait for a server verdict. A zero start is a no-op.
func (l *Local) QueueWait(start int64) {
	if l == nil || l.span == 0 || start == 0 {
		return
	}
	now := l.src.r.now()
	if d := now - start; d > 0 {
		l.emitAt(now, EvQueueWait, 0, 0, uint64(d))
	}
}

// Execute records the time since start (a Now stamp) as server-side
// execution of a commit request. A zero start is a no-op.
func (l *Local) Execute(start int64) {
	if l == nil || l.span == 0 || start == 0 {
		return
	}
	now := l.src.r.now()
	if d := now - start; d > 0 {
		l.emitAt(now, EvExecute, 0, 0, uint64(d))
	}
}

// Default is the package-level recorder every runtime wires into. It
// starts disabled, making all wired call sites no-ops until Enable.
var Default = NewRecorder()

// S returns the Default recorder's source with the given name.
func S(name string) *Source { return Default.Source(name) }

// Enable arms the Default recorder, sampling one in every n transactions
// (n <= 1 records every transaction).
func Enable(n uint64) {
	Default.SetSampleEvery(n)
	Default.SetEnabled(true)
}

// Disable returns the Default recorder to its one-atomic-load fast path.
func Disable() { Default.SetEnabled(false) }
