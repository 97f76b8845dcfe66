package txnet

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// session is the per-client exactly-once state. Sessions outlive
// connections: a client that reconnects resumes its session by ID, and the
// cached last response makes retrying an unacknowledged request safe.
//
// lastSeq advances only when a transaction commits. A request with
// seq == lastSeq is a retry of the committed transaction and is answered
// from lastResp without executing; seq > lastSeq executes (sequence gaps
// are normal — failed requests never advance lastSeq and the client moves
// on); seq < lastSeq is a protocol violation.
type session struct {
	id uint64
	// mu serializes requests of one session, so a zombie connection still
	// executing a retry-superseded request and the retry itself cannot
	// interleave: the retry observes either the cached response or a
	// not-yet-committed lastSeq, never a half-applied transaction.
	mu sync.Mutex
	// lastSeq is written under mu, and read without it by a resuming hello.
	lastSeq  atomic.Uint64
	lastResp []byte // StatusOK response payload (no length prefix) for lastSeq
	lastUsed atomic.Int64
}

func (s *session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

// sessStats counts session-table health events across the process —
// rendered into telemetry.WriteTable so resume-after-expiry spikes (lost
// exactly-once windows) are visible on the debug endpoint.
var sessStats struct {
	opened        atomic.Uint64
	closed        atomic.Uint64 // explicit goodbye
	swept         atomic.Uint64 // TTL expiry
	resumed       atomic.Uint64
	resumeExpired atomic.Uint64 // resume attempts on dead sessions
}

// SessionStats is a point-in-time snapshot of the session counters.
type SessionStats struct {
	Opened        uint64
	Closed        uint64
	Swept         uint64
	Resumed       uint64
	ResumeExpired uint64
}

// SessionStatsSnapshot reads the session-table counters.
func SessionStatsSnapshot() SessionStats {
	return SessionStats{
		Opened:        sessStats.opened.Load(),
		Closed:        sessStats.closed.Load(),
		Swept:         sessStats.swept.Load(),
		Resumed:       sessStats.resumed.Load(),
		ResumeExpired: sessStats.resumeExpired.Load(),
	}
}

func init() {
	telemetry.RegisterSection(writeSessionSection)
}

func writeSessionSection(w io.Writer) {
	s := SessionStatsSnapshot()
	if s.Opened == 0 && s.ResumeExpired == 0 {
		return
	}
	fmt.Fprintf(w, "\nsessions: opened %d  closed %d  swept %d  resumed %d  resume-after-expiry %d\n",
		s.Opened, s.Closed, s.Swept, s.Resumed, s.ResumeExpired)
}

// sessionTable maps session IDs to live sessions. IDs are dense counters —
// sessions are an at-least-once-delivery dedup mechanism, not an
// authentication boundary (the server trusts its network, like any
// in-process runtime trusts its callers).
type sessionTable struct {
	mu       sync.Mutex
	sessions map[uint64]*session
	nextID   uint64
	ttl      time.Duration
}

func newSessionTable(ttl time.Duration) *sessionTable {
	return &sessionTable{sessions: make(map[uint64]*session), ttl: ttl}
}

// open creates a new session.
func (t *sessionTable) open() *session {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s := &session{id: t.nextID}
	s.touch()
	t.sessions[s.id] = s
	sessStats.opened.Add(1)
	return s
}

// restore recreates the session with the given ID during recovery,
// returning the existing one if replay already produced it. nextID is
// pushed past every restored ID so post-recovery opens never collide.
func (t *sessionTable) restore(id uint64) *session {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.sessions[id]; ok {
		return s
	}
	s := &session{id: id}
	s.touch()
	t.sessions[id] = s
	if id > t.nextID {
		t.nextID = id
	}
	return s
}

// remove frees a session immediately (explicit client goodbye).
func (t *sessionTable) remove(id uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.sessions[id]; !ok {
		return false
	}
	delete(t.sessions, id)
	return true
}

// lookup resumes an existing session; ok is false if it never existed or
// was expired (the client's exactly-once window is gone — it must fail
// loudly rather than risk a duplicate apply).
func (t *sessionTable) lookup(id uint64) (*session, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.sessions[id]
	if ok {
		s.touch()
	}
	return s, ok
}

// len reports the number of live sessions.
func (t *sessionTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.sessions)
}

// each calls fn for every live session. Callers that read per-session
// fields (the durable snapshot encoder) must hold whatever lock orders
// commits against the iteration; the table lock only pins the map.
func (t *sessionTable) each(fn func(*session)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.sessions {
		fn(s)
	}
}

// counter reads the ID allocator, for snapshot encoding.
func (t *sessionTable) counter() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nextID
}

// setNextID restores the ID counter from a snapshot (never lowers it).
func (t *sessionTable) setNextID(id uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id > t.nextID {
		t.nextID = id
	}
}

// sweep drops sessions idle beyond the TTL and reports how many were
// removed. A swept session's cached response is gone, so the TTL must
// comfortably exceed any client's reconnect window (default 5 minutes vs.
// sub-second reconnect backoff).
func (t *sessionTable) sweep(now time.Time) int {
	cutoff := now.Add(-t.ttl).UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for id, s := range t.sessions {
		if s.lastUsed.Load() < cutoff {
			delete(t.sessions, id)
			n++
		}
	}
	sessStats.swept.Add(uint64(n))
	return n
}
