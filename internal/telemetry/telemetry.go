// Package telemetry is the low-overhead statistics subsystem shared by every
// transactional runtime in the repository: commits, aborts broken down by
// abort.Reason, retries, fallbacks, and power-of-two latency histograms for
// commit phases and whole transactions.
//
// Design constraints, in order:
//
//  1. Near-zero cost when disabled. Every runtime is wired unconditionally,
//     so the recording fast path must collapse to one predictable branch (a
//     relaxed load of the registry's enabled flag). The package-level Default
//     registry starts disabled; nil *Meter and nil *Local are also valid
//     no-op recorders, so uninstrumented call sites pay nothing.
//  2. No cross-goroutine contention when enabled. Counters are sharded:
//     each transaction descriptor holds a Local handle bound to one
//     cache-line-padded shard, assigned round-robin at descriptor creation.
//     Descriptors are pooled per-P (sync.Pool), so a shard is effectively
//     goroutine-local while a transaction runs and increments are
//     uncontended atomic adds on a private cache line. The latency
//     histograms are sharded the same way.
//  3. Readers never stop writers. Snapshot sums the shards with relaxed
//     atomic loads; Reset zeroes them the same way. Both are wait-free with
//     respect to recording.
//
// Typical wiring (see internal/stm/norec for the real thing):
//
//	mtr := telemetry.M("NOrec")          // meter from the Default registry
//	tel := mtr.Local()                   // one per pooled tx descriptor
//	start := tel.Start()
//	... run the retry loop, tel.Abort(reason) on each failed attempt ...
//	tel.Commit(start)                    // count + transaction latency
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/abort"
)

// shardPad pads a shard to a multiple of two cache lines so adjacent shards
// never share one.
const shardPad = 128

// shard is one cache-line-padded block of counters and latency histograms.
// All fields are updated with relaxed atomics by the (usually single)
// goroutine whose descriptors hold the shard, and summed by Snapshot.
type shard struct {
	commits     atomic.Uint64
	retries     atomic.Uint64
	fallbacks   atomic.Uint64
	escalations atomic.Uint64
	aborts      [abort.NumReasons]atomic.Uint64
	txLat       counts // whole-transaction latency (committed txs)
	commitLat   counts // commit-phase latency
	_           [shardPad - ((4+abort.NumReasons)*8+2*countsSize)%shardPad]byte
}

// Meter collects statistics for one transactional runtime (one algorithm).
// Meters are created through a Registry and shared by every instance of the
// algorithm; a nil *Meter is a valid no-op recorder.
type Meter struct {
	name   string
	on     *atomic.Bool // the owning registry's enabled flag
	shards []shard
	next   atomic.Uint32 // round-robin shard assignment for Local()
	policy atomic.Value  // string: contention-management policy label
}

// Name returns the meter's (algorithm) name.
func (m *Meter) Name() string {
	if m == nil {
		return ""
	}
	return m.name
}

// SetPolicySource attaches a function that names the contention-management
// policy the runtime currently runs under; snapshots resolve it at read
// time, so abort-reason tables always label rows with the live policy even
// after the adaptive tuner or a -cm flag retunes it. Costs nothing on the
// recording fast path.
func (m *Meter) SetPolicySource(f func() string) {
	if m != nil && f != nil {
		m.policy.Store(f)
	}
}

// Policy returns the meter's current contention-management policy label
// ("" when no source was set).
func (m *Meter) Policy() string {
	if m == nil {
		return ""
	}
	f, _ := m.policy.Load().(func() string)
	if f == nil {
		return ""
	}
	return f()
}

// enabled reports whether recording is on; the single predictable branch on
// every hot path.
func (m *Meter) enabled() bool { return m != nil && m.on.Load() }

// Local returns a recording handle bound to one shard of the meter,
// assigned round-robin. Hold one per transaction descriptor (descriptors
// are pooled per-P, so the shard stays effectively goroutine-local). A nil
// meter returns a nil Local, which is a valid no-op recorder.
func (m *Meter) Local() *Local {
	if m == nil {
		return nil
	}
	i := m.next.Add(1) - 1
	return &Local{m: m, s: &m.shards[int(i)%len(m.shards)]}
}

// Local is a shard-bound recording handle. All methods are nil-safe and
// no-ops while the owning registry is disabled.
type Local struct {
	m *Meter
	s *shard
}

// Stamp is a start time captured by Start: monotonic nanoseconds since
// clockBase, plus one. The zero Stamp means "telemetry was disabled at
// Start", and the matching observe call does nothing.
type Stamp int64

// clockBase anchors Stamps. It carries a monotonic reading, so time.Since
// reads only the monotonic clock: one clock read, and no wall-clock step
// can make a latency negative.
var clockBase = time.Now()

func now() Stamp { return Stamp(time.Since(clockBase)) + 1 }

// Start returns a timestamp for latency recording, or zero when disabled.
func (l *Local) Start() Stamp {
	if l == nil || !l.m.enabled() {
		return 0
	}
	return now()
}

// since returns the elapsed nanoseconds for a stamp taken by Start.
func since(s Stamp) int64 { return int64(now() - s) }

// Commit records one committed transaction and, if start is a live stamp,
// its whole-transaction latency.
func (l *Local) Commit(start Stamp) { l.CommitAt(start, 0) }

// CommitAt is Commit for a transaction whose end the caller has already
// read: end is the stamp CommitPhase returned, or 0 to read the clock now.
func (l *Local) CommitAt(start, end Stamp) {
	if l == nil || !l.m.enabled() {
		return
	}
	l.s.commits.Add(1)
	if start != 0 {
		if end == 0 {
			end = now()
		}
		l.s.txLat.observe(int64(end - start))
	}
}

// CommitPhase records the latency of the commit phase itself (lock,
// validate, publish, release), measured from a Start stamp taken at the
// beginning of commit, and returns the stamp it read at the end (0 when it
// recorded nothing), for CommitAt.
func (l *Local) CommitPhase(start Stamp) Stamp {
	if l == nil || start == 0 || !l.m.enabled() {
		return 0
	}
	end := now()
	l.s.commitLat.observe(int64(end - start))
	return end
}

// Abort records one aborted attempt classified by reason, and the retry it
// implies (every runtime here re-executes after an abort). Canceled and
// Panicked are terminal — the transaction leaves the retry loop — so they
// count as aborts but not retries.
func (l *Local) Abort(r abort.Reason) {
	if l == nil || !l.m.enabled() {
		return
	}
	if r < 0 || r >= abort.NumReasons {
		r = abort.Conflict
	}
	l.s.aborts[r].Add(1)
	if r != abort.Canceled && r != abort.Panicked {
		l.s.retries.Add(1)
	}
}

// Fallback records one fall-through to a slow path (e.g. the hybrid HTM
// giving up on hardware and taking the software fallback).
func (l *Local) Fallback() {
	if l == nil || !l.m.enabled() {
		return
	}
	l.s.fallbacks.Add(1)
}

// Escalated records one transaction that exhausted its retry budget and
// committed in serial mode (the contention manager's guaranteed-progress
// path).
func (l *Local) Escalated() {
	if l == nil || !l.m.enabled() {
		return
	}
	l.s.escalations.Add(1)
}

// MeterSnapshot is a point-in-time copy of a meter's counters.
type MeterSnapshot struct {
	Name        string
	Policy      string // contention-management policy label ("" if unset)
	Commits     uint64
	Retries     uint64
	Fallbacks   uint64
	Escalations uint64
	Aborts      [abort.NumReasons]uint64

	TxLatency     HistogramSnapshot
	CommitLatency HistogramSnapshot
}

// RecoveredPanics returns the count of attempts that unwound with a foreign
// panic and were rolled back by the runtime's recovery path (the panic was
// then re-raised to the caller).
func (s MeterSnapshot) RecoveredPanics() uint64 { return s.Aborts[abort.Panicked] }

// Canceled returns the count of transactions abandoned because their
// context was cancelled or its deadline expired.
func (s MeterSnapshot) Canceled() uint64 { return s.Aborts[abort.Canceled] }

// TotalAborts sums the per-reason abort counts.
func (s MeterSnapshot) TotalAborts() uint64 {
	var t uint64
	for _, a := range s.Aborts {
		t += a
	}
	return t
}

// AbortRate returns aborted attempts over all attempts, in [0,1]; zero when
// no attempts were recorded.
func (s MeterSnapshot) AbortRate() float64 {
	a := s.TotalAborts()
	if a+s.Commits == 0 {
		return 0
	}
	return float64(a) / float64(a+s.Commits)
}

// Snapshot sums the meter's shards. It is wait-free and may run concurrently
// with recording; the result is a consistent-enough sum for reporting (each
// counter is individually exact at some instant during the call).
func (m *Meter) Snapshot() MeterSnapshot {
	if m == nil {
		return MeterSnapshot{}
	}
	out := MeterSnapshot{Name: m.name, Policy: m.Policy()}
	for i := range m.shards {
		sh := &m.shards[i]
		out.Commits += sh.commits.Load()
		out.Retries += sh.retries.Load()
		out.Fallbacks += sh.fallbacks.Load()
		out.Escalations += sh.escalations.Load()
		for r := range sh.aborts {
			out.Aborts[r] += sh.aborts[r].Load()
		}
		sh.txLat.addTo(&out.TxLatency)
		sh.commitLat.addTo(&out.CommitLatency)
	}
	return out
}

// Reset zeroes all counters and histograms.
func (m *Meter) Reset() {
	if m == nil {
		return
	}
	for i := range m.shards {
		sh := &m.shards[i]
		sh.commits.Store(0)
		sh.retries.Store(0)
		sh.fallbacks.Store(0)
		sh.escalations.Store(0)
		for r := range sh.aborts {
			sh.aborts[r].Store(0)
		}
		sh.txLat.reset()
		sh.commitLat.reset()
	}
}

// defaultShards is the shard count for new meters: enough to spread the
// descriptor pools of a many-core run, small enough that Snapshot stays
// cheap.
const defaultShards = 32

// reasonNames is the abort-reason name list, computed once at package init
// so snapshot/export paths never re-derive it per call.
var reasonNames = func() [abort.NumReasons]string {
	var out [abort.NumReasons]string
	for r := abort.Reason(0); r < abort.NumReasons; r++ {
		out[r] = r.String()
	}
	return out
}()

// ReasonName returns the precomputed name of an abort reason (equivalent to
// r.String(), without the per-call formatting work).
func ReasonName(r abort.Reason) string {
	if r < 0 || r >= abort.NumReasons {
		return "unknown"
	}
	return reasonNames[r]
}

// Registry is a named collection of meters sharing one enabled flag.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	on     atomic.Bool
	mu     sync.Mutex
	meters map[string]*Meter
	sorted []*Meter // meters ordered by name, maintained at insertion
}

// NewRegistry creates an empty, disabled registry.
func NewRegistry() *Registry {
	return &Registry{meters: make(map[string]*Meter)}
}

// Meter returns the registry's meter with the given name, creating it on
// first use. Meters are shared: every algorithm instance with the same name
// records into the same meter. A nil registry returns a nil (no-op) meter.
func (r *Registry) Meter(name string) *Meter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.meters[name]
	if !ok {
		m = &Meter{name: name, on: &r.on, shards: make([]shard, defaultShards)}
		r.meters[name] = m
		// Keep the meter list sorted at insertion (meter creation is rare
		// and one-time) so Snapshot never sorts on the read path.
		i := sort.Search(len(r.sorted), func(i int) bool { return r.sorted[i].name >= name })
		r.sorted = append(r.sorted, nil)
		copy(r.sorted[i+1:], r.sorted[i:])
		r.sorted[i] = m
	}
	return m
}

// SetEnabled turns recording on or off for every meter of the registry.
func (r *Registry) SetEnabled(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// Enabled reports whether the registry is recording.
func (r *Registry) Enabled() bool { return r != nil && r.on.Load() }

// meterList returns the registry's meters ordered by name. The order is
// maintained at insertion, so this is a copy, not a sort.
func (r *Registry) meterList() []*Meter {
	r.mu.Lock()
	out := make([]*Meter, len(r.sorted))
	copy(out, r.sorted)
	r.mu.Unlock()
	return out
}

// Snapshot returns a snapshot of every meter, sorted by name. Meters with
// no recorded activity are included (callers filter if they care). The name
// order comes from the registration-time sorted list; Snapshot itself does
// no per-call sorting (guarded by BenchmarkRegistrySnapshot and
// TestSnapshotAllocs).
func (r *Registry) Snapshot() []MeterSnapshot {
	if r == nil {
		return nil
	}
	meters := r.meterList()
	out := make([]MeterSnapshot, 0, len(meters))
	for _, m := range meters {
		out = append(out, m.Snapshot())
	}
	return out
}

// Reset zeroes every meter of the registry.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	for _, m := range r.meterList() {
		m.Reset()
	}
}

// Default is the package-level registry every runtime wires into. It starts
// disabled, making all wired call sites no-ops until Enable.
var Default = NewRegistry()

// M returns the Default registry's meter with the given name.
func M(name string) *Meter { return Default.Meter(name) }

// Enable turns on recording in the Default registry.
func Enable() { Default.SetEnabled(true) }

// Disable turns off recording in the Default registry.
func Disable() { Default.SetEnabled(false) }
