// Package txnet puts the repository's transactional runtimes on a socket:
// a TCP server (cmd/txstore) exposing OTB sets, maps and priority queues —
// or any runtime wrapped in the Store interface — through a length-prefixed
// binary wire protocol with per-client transaction sessions, and a client
// library whose retries are exactly-once by construction.
//
// The design promotes the paper's Chapter 5 remote-execution split (RTC:
// clients post commit requests to dedicated server goroutines) across a real
// network boundary, where the robustness tier built underneath it — the
// contention manager's serial gate, failpoints, panic-safe rollback, and
// context cancellation — finally meets real failure modes: dropped
// connections, stalled reads, partial writes, slow clients and overload.
//
// # Sessions and exactly-once retries
//
// Every client owns a session. Each transaction request carries
// (sessionID, seq); the server serializes requests per session, executes a
// request only when seq is beyond the session's last committed sequence
// number, and caches the last committed response. A client that loses its
// connection mid-request cannot know whether the transaction committed, so
// it reconnects and resends the same seq: if the transaction had committed,
// the cached response is replayed without re-executing; if it had not, it
// executes now. Either way the transaction applies exactly once. Sequence
// numbers only advance on commit, so failed requests (deadline, shed,
// aborted) leave no state and are safe to re-issue or skip.
//
// # Deadlines, overload, drain
//
// Client context deadlines ride the wire as a remaining-time budget and
// become the server-side context for the transaction itself
// (otb.AtomicCtx / mvotb's ReadOnlyCtx), so a transaction whose client has given
// up stops retrying instead of burning server cycles. The wire distinguishes
// deadline-exceeded, aborted, overloaded (with a retry-after hint) and
// shutting-down, so clients can react differently to each.
//
// Admission control bounds the number of concurrently executing
// transactions: arrivals beyond the bound wait briefly for a slot and are
// then shed with StatusOverloaded and a retry-after hint derived from
// observed commit latency; while the contention manager's serial-mode gate
// is closed (the system is already known to be thrashing), arrivals that
// miss the fast path are shed immediately rather than queued.
//
// Shutdown drains: the listener closes, in-flight transactions finish under
// the caller's drain deadline, late requests get StatusShutdown, and every
// goroutine (accept loop, connection handlers, session sweeper) exits —
// verified leak-free by internal/chaos/leak in the chaos soak test.
//
// # Failpoints
//
// Four failpoints model the network's failure modes and are exercised by the
// chaos soak test (internal/chaos/recovery proves each is survivable):
//
//	txnet.conn.drop     connection dropped after a request is read
//	txnet.read.stall    server-side read stall (slow/hostile client path)
//	txnet.write.partial connection dropped after a partial response write
//	txnet.server.stall  stall between admission and execution
package txnet
