package txnet

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"time"
)

// payloadOf checks a frame's length slot against its size and strips it, so
// every encoder test also tests finishFrame.
func payloadOf(t testing.TB, frame []byte) []byte {
	t.Helper()
	if len(frame) < frameHdr || int(binary.BigEndian.Uint32(frame)) != len(frame)-frameHdr {
		t.Fatalf("frame of %d bytes has a wrong length slot: % x", len(frame), frame)
	}
	return frame[frameHdr:]
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("hello frame")
	// Framing appends: the frame must come out right behind a prefix too.
	framed := appendFrame([]byte("xx"), payload)
	if !bytes.Equal(payloadOf(t, framed[2:]), payload) {
		t.Fatalf("appendFrame: % x", framed)
	}
	buf := bytes.NewBuffer(framed[2:])
	got, err := readFrame(buf, nil)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame round-trip: got %q want %q", got, payload)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := readFrame(&buf, nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestTxnRoundTrip(t *testing.T) {
	ops := []Op{
		{Code: OpAdd, Struct: 0, Key: -42},
		{Code: OpPut, Struct: 1, Key: 7, Val: 1<<63 + 9},
		{Code: OpRemoveMin, Struct: 2},
	}
	b := payloadOf(t, appendTxn(nil, 17, 99, 1500*time.Millisecond, 0xabcdef0123456789, 0x42, flagResend|flagStages, ops))
	req, _, err := parseTxn(b, nil)
	if err != nil {
		t.Fatalf("parseTxn: %v", err)
	}
	if req.session != 17 || req.seq != 99 {
		t.Fatalf("session/seq: got %d/%d want 17/99", req.session, req.seq)
	}
	if req.deadline != 1500*time.Millisecond {
		t.Fatalf("deadline: got %v", req.deadline)
	}
	if req.traceID != 0xabcdef0123456789 || req.parent != 0x42 {
		t.Fatalf("trace context: got %x/%x", req.traceID, req.parent)
	}
	if req.flags != flagResend|flagStages {
		t.Fatalf("flags: got %x", req.flags)
	}
	if len(req.ops) != len(ops) {
		t.Fatalf("ops: got %d want %d", len(req.ops), len(ops))
	}
	for i := range ops {
		if req.ops[i] != ops[i] {
			t.Fatalf("op %d: got %+v want %+v", i, req.ops[i], ops[i])
		}
	}
}

func TestTxnReusesOpsBuffer(t *testing.T) {
	scratch := make([]Op, 0, 8)
	b := payloadOf(t, appendTxn(nil, 1, 1, 0, 0, 0, 0, []Op{{Code: OpContains, Key: 5}}))
	_, ops, err := parseTxn(b, scratch)
	if err != nil {
		t.Fatalf("parseTxn: %v", err)
	}
	if cap(ops) != cap(scratch) {
		t.Fatalf("ops buffer not reused: cap %d want %d", cap(ops), cap(scratch))
	}
}

func TestTxnMalformed(t *testing.T) {
	good := payloadOf(t, appendTxn(nil, 1, 1, 0, 0, 0, 0, []Op{{Code: OpAdd, Key: 1}}))
	cases := map[string][]byte{
		"empty":      {},
		"wrong type": append([]byte{msgHello}, good[1:]...),
		"truncated":  good[:len(good)-3],
		"extra":      append(append([]byte{}, good...), 0xAA),
	}
	for name, p := range cases {
		if _, _, err := parseTxn(p, nil); err == nil {
			t.Errorf("%s payload accepted", name)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	b := payloadOf(t, appendHello(nil, 1234))
	if b[0] != msgHello || be64(b[1:]) != 1234 {
		t.Fatalf("hello request encoding: % x", b)
	}
	r, err := parseResponse(payloadOf(t, appendHelloResp(nil, 55, 9)))
	if err != nil {
		t.Fatalf("parse hello resp: %v", err)
	}
	if r.status != StatusHello || r.sessionID != 55 || r.lastSeq != 9 {
		t.Fatalf("hello resp: %+v", r)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	results := []OpResult{{Out: 7, OK: true}, {Out: 0, OK: false}}
	r, err := parseResponse(payloadOf(t, appendOKResp(nil, 42, results, nil)))
	if err != nil {
		t.Fatalf("parse ok: %v", err)
	}
	if r.status != StatusOK || r.seq != 42 || len(r.results) != 2 {
		t.Fatalf("ok resp: %+v", r)
	}
	if r.results[0] != results[0] || r.results[1] != results[1] {
		t.Fatalf("results: %+v", r.results)
	}

	r, err = parseResponse(payloadOf(t, appendErrResp(nil, StatusOverloaded, 3, 7*time.Millisecond, "")))
	if err != nil {
		t.Fatalf("parse overloaded: %v", err)
	}
	if r.status != StatusOverloaded || r.seq != 3 || r.retryAfter != 7*time.Millisecond {
		t.Fatalf("overloaded resp: %+v", r)
	}

	r, err = parseResponse(payloadOf(t, appendErrResp(nil, StatusAborted, 4, 0, "conflict on key 9")))
	if err != nil {
		t.Fatalf("parse aborted: %v", err)
	}
	if r.status != StatusAborted || r.msg != "conflict on key 9" {
		t.Fatalf("aborted resp: %+v", r)
	}

	for _, st := range []Status{StatusDeadline, StatusShutdown} {
		r, err = parseResponse(payloadOf(t, appendErrResp(nil, st, 5, 0, "")))
		if err != nil {
			t.Fatalf("parse %s: %v", st, err)
		}
		if r.status != st || r.seq != 5 {
			t.Fatalf("%s resp: %+v", st, r)
		}
	}
}

func TestResponseMalformed(t *testing.T) {
	ok := payloadOf(t, appendOKResp(nil, 1, []OpResult{{OK: true}}, nil))
	cases := map[string][]byte{
		"empty":          {},
		"short ok":       ok[:5],
		"ok extra":       append(append([]byte{}, ok...), 1),
		"unknown status": {200, 0, 0, 0, 0, 0, 0, 0, 1},
		"deadline body":  append(payloadOf(t, appendErrResp(nil, StatusDeadline, 1, 0, "")), 9),
	}
	for name, p := range cases {
		if _, err := parseResponse(p); err == nil {
			t.Errorf("%s response accepted", name)
		}
	}
}

func TestClampMillis(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want uint32
	}{
		{0, 0},
		{-time.Second, 0},
		{time.Microsecond, 1}, // rounds up: a positive budget must stay a deadline
		{time.Millisecond, 1},
		{1500 * time.Microsecond, 2},
		{time.Hour * 24 * 365 * 200, 1<<32 - 1},
	}
	for _, c := range cases {
		if got := clampMillis(c.in); got != c.want {
			t.Errorf("clampMillis(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestStatusAndOpStrings(t *testing.T) {
	for st := StatusOK; st <= StatusHello; st++ {
		if strings.HasPrefix(st.String(), "status(") {
			t.Errorf("status %d has no name", byte(st))
		}
	}
	for c := OpAdd; c < numOpCodes; c++ {
		if strings.HasPrefix(c.String(), "op(") {
			t.Errorf("opcode %d has no name", uint8(c))
		}
	}
}
