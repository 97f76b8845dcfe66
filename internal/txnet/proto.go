package txnet

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"repro/internal/trace"
)

// Wire format: every message is one frame — a 4-byte big-endian payload
// length followed by the payload. The first payload byte is the message type
// (requests) or status (responses); all integers are big-endian. Every
// encoder below builds header and payload in one buffer, so a frame leaves in
// exactly one Write: with TCP_NODELAY (Go's default) each write is a system
// call and a segment of its own, and a header written apart doubles both.
//
// Requests:
//
//	hello:  msgHello, u64 sessionID (0 = open a new session)
//	txn:    msgTxn, u64 sessionID, u64 seq, u32 deadline (ms, 0 = none),
//	        u64 traceID (0 = unsampled), u64 parentSpan, u8 flags,
//	        u16 nops, nops × (u8 code, u32 struct, u64 key, u64 val)
//	bye:    msgBye, u64 sessionID (frees the session immediately)
//
// The trace context propagates the client's sampling verdict: a nonzero
// traceID tells the server to open a request span under exactly that id, so
// client and server spans compose into one cross-process trace. The id is
// preserved verbatim across exactly-once resends (flagResend marks them), so
// a retried commit stays one trace.
//
// Responses:
//
//	hello:  StatusHello, u64 sessionID, u64 lastSeq
//	bye:    StatusBye (no body)
//	txn:    status, u64 seq, then status-specific:
//	        StatusOK         u16 n, n × (u64 out, u8 ok),
//	                         u8 nstages, nstages × (u8 stage, u64 ns)
//	        StatusOverloaded u32 retry-after (ms)
//	        StatusAborted /
//	        StatusBadRequest u16 len, message
//	        StatusDeadline / StatusShutdown (no body)
//
// The OK stage block reports where the server spent the request's time
// (trace.Stage codes); it is empty unless the request asked for it with
// flagStages. Replayed responses return the original execution's stages.

// MaxFrame bounds a frame payload; a length prefix beyond it poisons the
// connection (protocol desync or a hostile peer) and the conn is dropped.
const MaxFrame = 1 << 20

// Request message types.
const (
	msgHello byte = 1
	msgTxn   byte = 2
	msgBye   byte = 3
)

// Txn request trace-context flags.
const (
	// flagResend marks a same-sequence resend after a connection failure.
	flagResend byte = 1 << 0
	// flagStages asks the server to fill the OK response's stage block.
	flagStages byte = 1 << 1
)

// Status is the first byte of every response.
type Status byte

// Response statuses. The distinctions matter to the client's retry logic:
// only StatusOK means the transaction committed; StatusOverloaded is
// retryable after the hint; StatusDeadline, StatusAborted, StatusShutdown
// and StatusBadRequest are definitive for this request (nothing applied).
const (
	StatusOK         Status = 0
	StatusAborted    Status = 1
	StatusDeadline   Status = 2
	StatusOverloaded Status = 3
	StatusBadRequest Status = 4
	StatusShutdown   Status = 5
	StatusHello      Status = 6
	StatusBye        Status = 7
)

// String names the status for errors and logs.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusAborted:
		return "aborted"
	case StatusDeadline:
		return "deadline-exceeded"
	case StatusOverloaded:
		return "overloaded"
	case StatusBadRequest:
		return "bad-request"
	case StatusShutdown:
		return "shutting-down"
	case StatusHello:
		return "hello"
	case StatusBye:
		return "bye"
	default:
		return fmt.Sprintf("status(%d)", byte(s))
	}
}

// OpCode identifies one structure operation inside a transaction.
type OpCode uint8

// Operation codes, grouped by abstract type. Which codes a structure
// accepts depends on its kind (set, map, pq); a mismatch is a BadOp.
const (
	OpAdd OpCode = iota // set, pq
	OpRemove
	OpContains
	OpPut // map
	OpGet
	OpDelete
	OpMin // pq
	OpRemoveMin

	numOpCodes
)

var opNames = [...]string{
	OpAdd: "add", OpRemove: "remove", OpContains: "contains",
	OpPut: "put", OpGet: "get", OpDelete: "delete",
	OpMin: "min", OpRemoveMin: "remove-min",
}

func (c OpCode) String() string {
	if int(c) < len(opNames) {
		return opNames[c]
	}
	return fmt.Sprintf("op(%d)", uint8(c))
}

// Op is one operation of a transaction: an opcode against the structure at
// index Struct in the server's registry, with a key and (for Put) a value.
type Op struct {
	Code   OpCode
	Struct uint32
	Key    int64
	Val    uint64
}

// OpResult is the outcome of one op: Out carries Get/Min/RemoveMin values,
// OK the boolean result (membership, insertedness, non-emptiness).
type OpResult struct {
	Out uint64
	OK  bool
}

// opWireSize is the encoded size of one Op.
const opWireSize = 1 + 4 + 8 + 8

// txnReq is a parsed transaction request.
type txnReq struct {
	session  uint64
	seq      uint64
	deadline time.Duration // 0 = none
	traceID  uint64        // wire trace context (0 = unsampled)
	parent   uint64        // opening peer's span id
	flags    byte          // flagResend | flagStages
	ops      []Op
}

// response is a parsed transaction (or hello) response.
type response struct {
	status     Status
	seq        uint64
	retryAfter time.Duration // StatusOverloaded
	msg        string        // StatusAborted / StatusBadRequest
	results    []OpResult    // StatusOK
	sessionID  uint64        // StatusHello
	lastSeq    uint64        // StatusHello

	// stages is the server-side stage breakdown of an OK response
	// (nanoseconds per trace.Stage); hasStages reports a non-empty block.
	stages    [trace.NumStages]int64
	hasStages bool
}

// frameHdr is the size of a frame's length prefix.
const frameHdr = 4

// beginFrame starts a frame at the end of b: the reserved length slot, whose
// offset it returns, then the payload's first byte (message type or status).
func beginFrame(b []byte, kind byte) ([]byte, int) {
	return append(b, 0, 0, 0, 0, kind), len(b)
}

// finishFrame back-fills the length slot of the frame begun at b[at:]. Every
// append* encoder runs from beginFrame to here and returns a whole frame.
func finishFrame(b []byte, at int) []byte {
	binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-frameHdr))
	return b
}

// appendFrame frames an already-encoded payload (a cached verdict).
func appendFrame(b, payload []byte) []byte {
	at := len(b)
	return finishFrame(append(append(b, 0, 0, 0, 0), payload...), at)
}

// readFrame reads one frame into buf (grown as needed) and returns the
// payload slice. It rejects frames beyond MaxFrame without reading them.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	// The header is read into buf too: a local array would escape through
	// the io.Reader and cost an allocation per frame.
	buf = append(buf[:0], 0, 0, 0, 0)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(buf)
	if n > MaxFrame {
		return nil, fmt.Errorf("txnet: frame of %d bytes exceeds limit %d", n, MaxFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// appendHello encodes a hello request.
func appendHello(b []byte, sessionID uint64) []byte {
	b, at := beginFrame(b, msgHello)
	return finishFrame(binary.BigEndian.AppendUint64(b, sessionID), at)
}

// appendBye encodes a goodbye request.
func appendBye(b []byte, sessionID uint64) []byte {
	b, at := beginFrame(b, msgBye)
	return finishFrame(binary.BigEndian.AppendUint64(b, sessionID), at)
}

// appendByeResp encodes a goodbye acknowledgement.
func appendByeResp(b []byte) []byte {
	return finishFrame(beginFrame(b, byte(StatusBye)))
}

// appendTxn encodes a transaction request. deadline is clamped to the u32
// millisecond range; zero means none. traceID/parent/flags carry the trace
// context (all zero for unsampled requests).
func appendTxn(b []byte, session, seq uint64, deadline time.Duration,
	traceID, parent uint64, flags byte, ops []Op) []byte {
	b, at := beginFrame(b, msgTxn)
	b = binary.BigEndian.AppendUint64(b, session)
	b = binary.BigEndian.AppendUint64(b, seq)
	b = binary.BigEndian.AppendUint32(b, clampMillis(deadline))
	b = binary.BigEndian.AppendUint64(b, traceID)
	b = binary.BigEndian.AppendUint64(b, parent)
	b = append(b, flags)
	b = binary.BigEndian.AppendUint16(b, uint16(len(ops)))
	for _, op := range ops {
		b = append(b, byte(op.Code))
		b = binary.BigEndian.AppendUint32(b, op.Struct)
		b = binary.BigEndian.AppendUint64(b, uint64(op.Key))
		b = binary.BigEndian.AppendUint64(b, op.Val)
	}
	return finishFrame(b, at)
}

// clampMillis converts a duration to wire milliseconds, rounding up so a
// positive sub-millisecond budget does not become "no deadline".
func clampMillis(d time.Duration) uint32 {
	if d <= 0 {
		return 0
	}
	ms := (d + time.Millisecond - 1) / time.Millisecond
	if ms > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(ms)
}

// maxOps bounds the ops of one transaction (fits comfortably in MaxFrame).
const maxOps = 4096

// parseTxn decodes a transaction request payload (after the type byte has
// been inspected but not consumed). ops is reused when large enough.
func parseTxn(p []byte, ops []Op) (txnReq, []Op, error) {
	var req txnReq
	if len(p) < 1+8+8+4+8+8+1+2 || p[0] != msgTxn {
		return req, ops, fmt.Errorf("txnet: malformed txn request (%d bytes)", len(p))
	}
	req.session = binary.BigEndian.Uint64(p[1:])
	req.seq = binary.BigEndian.Uint64(p[9:])
	if ms := binary.BigEndian.Uint32(p[17:]); ms != 0 {
		req.deadline = time.Duration(ms) * time.Millisecond
	}
	req.traceID = binary.BigEndian.Uint64(p[21:])
	req.parent = binary.BigEndian.Uint64(p[29:])
	req.flags = p[37]
	n := int(binary.BigEndian.Uint16(p[38:]))
	p = p[40:]
	if n > maxOps || len(p) != n*opWireSize {
		return req, ops, fmt.Errorf("txnet: txn body length %d does not match %d ops", len(p), n)
	}
	if cap(ops) < n {
		ops = make([]Op, n)
	}
	ops = ops[:n]
	for i := 0; i < n; i++ {
		o := p[i*opWireSize:]
		ops[i] = Op{
			Code:   OpCode(o[0]),
			Struct: binary.BigEndian.Uint32(o[1:]),
			Key:    int64(binary.BigEndian.Uint64(o[5:])),
			Val:    binary.BigEndian.Uint64(o[13:]),
		}
	}
	req.ops = ops
	return req, ops, nil
}

// appendHelloResp encodes a hello response.
func appendHelloResp(b []byte, sessionID, lastSeq uint64) []byte {
	b, at := beginFrame(b, byte(StatusHello))
	b = binary.BigEndian.AppendUint64(b, sessionID)
	return finishFrame(binary.BigEndian.AppendUint64(b, lastSeq), at)
}

// appendOKResp encodes a committed transaction's response. stages, when
// non-nil, is the server-side stage breakdown (nanoseconds indexed by
// trace.Stage); zero stages are elided from the wire block.
func appendOKResp(b []byte, seq uint64, results []OpResult, stages *[trace.NumStages]int64) []byte {
	b, at := beginFrame(b, byte(StatusOK))
	b = binary.BigEndian.AppendUint64(b, seq)
	b = binary.BigEndian.AppendUint16(b, uint16(len(results)))
	for _, r := range results {
		b = binary.BigEndian.AppendUint64(b, r.Out)
		if r.OK {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	n := 0
	if stages != nil {
		for _, d := range stages {
			if d > 0 {
				n++
			}
		}
	}
	b = append(b, byte(n))
	if n > 0 {
		for st, d := range stages {
			if d > 0 {
				b = append(b, byte(st))
				b = binary.BigEndian.AppendUint64(b, uint64(d))
			}
		}
	}
	return finishFrame(b, at)
}

// appendErrResp encodes a non-OK response. retryAfter is encoded for
// StatusOverloaded, msg for StatusAborted and StatusBadRequest.
func appendErrResp(b []byte, st Status, seq uint64, retryAfter time.Duration, msg string) []byte {
	b, at := beginFrame(b, byte(st))
	b = binary.BigEndian.AppendUint64(b, seq)
	switch st {
	case StatusOverloaded:
		b = binary.BigEndian.AppendUint32(b, clampMillis(retryAfter))
	case StatusAborted, StatusBadRequest:
		if len(msg) > 1<<16-1 {
			msg = msg[:1<<16-1]
		}
		b = binary.BigEndian.AppendUint16(b, uint16(len(msg)))
		b = append(b, msg...)
	}
	return finishFrame(b, at)
}

// parseResponse decodes any response payload.
func parseResponse(p []byte) (response, error) {
	var r response
	if len(p) < 1 {
		return r, fmt.Errorf("txnet: empty response")
	}
	r.status = Status(p[0])
	p = p[1:]
	if r.status == StatusHello {
		if len(p) != 16 {
			return r, fmt.Errorf("txnet: malformed hello response")
		}
		r.sessionID = binary.BigEndian.Uint64(p)
		r.lastSeq = binary.BigEndian.Uint64(p[8:])
		return r, nil
	}
	if r.status == StatusBye {
		if len(p) != 0 {
			return r, fmt.Errorf("txnet: unexpected bye body")
		}
		return r, nil
	}
	if len(p) < 8 {
		return r, fmt.Errorf("txnet: short %s response", r.status)
	}
	r.seq = binary.BigEndian.Uint64(p)
	p = p[8:]
	switch r.status {
	case StatusOK:
		if len(p) < 2 {
			return r, fmt.Errorf("txnet: short ok response")
		}
		n := int(binary.BigEndian.Uint16(p))
		p = p[2:]
		if len(p) < n*9+1 {
			return r, fmt.Errorf("txnet: ok body length %d does not match %d results", len(p), n)
		}
		r.results = make([]OpResult, n)
		for i := 0; i < n; i++ {
			r.results[i] = OpResult{
				Out: binary.BigEndian.Uint64(p[i*9:]),
				OK:  p[i*9+8] == 1,
			}
		}
		p = p[n*9:]
		ns := int(p[0])
		p = p[1:]
		if len(p) != ns*9 {
			return r, fmt.Errorf("txnet: ok stage block length %d does not match %d stages", len(p), ns)
		}
		for i := 0; i < ns; i++ {
			st := trace.Stage(p[i*9])
			d := binary.BigEndian.Uint64(p[i*9+1:])
			if st >= trace.NumStages || d == 0 || d > 1<<62 {
				return r, fmt.Errorf("txnet: malformed stage entry %d", i)
			}
			if r.stages[st] != 0 {
				return r, fmt.Errorf("txnet: duplicate stage entry %v", st)
			}
			r.stages[st] = int64(d)
			r.hasStages = true
		}
	case StatusOverloaded:
		if len(p) != 4 {
			return r, fmt.Errorf("txnet: malformed overloaded response")
		}
		r.retryAfter = time.Duration(binary.BigEndian.Uint32(p)) * time.Millisecond
	case StatusAborted, StatusBadRequest:
		if len(p) < 2 {
			return r, fmt.Errorf("txnet: short %s response", r.status)
		}
		n := int(binary.BigEndian.Uint16(p))
		if len(p[2:]) != n {
			return r, fmt.Errorf("txnet: %s message length mismatch", r.status)
		}
		r.msg = string(p[2 : 2+n])
	case StatusDeadline, StatusShutdown:
		if len(p) != 0 {
			return r, fmt.Errorf("txnet: unexpected %s body", r.status)
		}
	default:
		return r, fmt.Errorf("txnet: unknown response status %d", byte(r.status))
	}
	return r, nil
}
