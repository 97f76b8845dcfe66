package txnet

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// FuzzDecodeFrame feeds arbitrary bytes to the framing layer. The decoder
// may reject, but must never panic, never hand back more than MaxFrame
// bytes, and must return exactly the advertised payload when it accepts.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(appendHello(nil, 0))
	f.Add(appendHello(nil, 42))
	f.Add(appendBye(nil, 7))
	f.Add(appendTxn(nil, 1, 2, 50*time.Millisecond, 0, 0, 0, []Op{
		{Code: OpAdd, Struct: 0, Key: 10},
		{Code: OpPut, Struct: 1, Key: -3, Val: 99},
	}))
	f.Add(appendFrame(nil, nil))
	f.Add([]byte{})                       // short header
	f.Add([]byte{0, 0, 0, 5, 1, 2})       // truncated payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // oversize length prefix
	f.Add(appendOKResp(nil, 3, []OpResult{{Out: 1, OK: true}}, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readFrame(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		if len(payload) > MaxFrame {
			t.Fatalf("readFrame returned %d bytes, over MaxFrame", len(payload))
		}
		if len(data) < 4 {
			t.Fatalf("readFrame accepted a %d-byte input", len(data))
		}
		want := binary.BigEndian.Uint32(data)
		if uint32(len(payload)) != want {
			t.Fatalf("payload %d bytes, header promised %d", len(payload), want)
		}
		if !bytes.Equal(payload, data[4:4+want]) {
			t.Fatalf("payload does not match frame body")
		}
	})
}

// FuzzDecodeTxn runs arbitrary payloads through both message decoders —
// the request parser the server exposes to the network and the response
// parser the client exposes to the server. Neither may panic, and an
// accepted transaction must re-encode to the exact input (the session
// replay cache depends on byte-stable round-trips).
func FuzzDecodeTxn(f *testing.F) {
	f.Add(payloadOf(f, appendHello(nil, 0)))
	f.Add(payloadOf(f, appendBye(nil, 12)))
	f.Add(payloadOf(f, appendTxn(nil, 1, 1, 0, 0, 0, 0, []Op{{Code: OpContains, Struct: 0, Key: 5}})))
	f.Add(payloadOf(f, appendTxn(nil, 9, 4, time.Second, 0xdeadbeefcafef00d, 0x1234, flagResend|flagStages, []Op{
		{Code: OpRemoveMin, Struct: 2},
		{Code: OpDelete, Struct: 1, Key: 1 << 40},
	})))
	f.Add(payloadOf(f, appendOKResp(nil, 2, []OpResult{{Out: 7, OK: false}, {OK: true}}, nil)))
	f.Add(payloadOf(f, appendHelloResp(nil, 3, 17)))
	f.Add(payloadOf(f, appendByeResp(nil)))
	f.Add(payloadOf(f, appendErrResp(nil, StatusOverloaded, 5, 20*time.Millisecond, "")))
	f.Add(payloadOf(f, appendErrResp(nil, StatusBadRequest, 6, 0, "bad op")))
	f.Add([]byte{byte(msgTxn), 0, 0}) // truncated request
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if req, ops, err := parseTxn(data, nil); err == nil {
			if len(ops) > maxOps {
				t.Fatalf("parseTxn accepted %d ops, over maxOps", len(ops))
			}
			enc := appendTxn(nil, req.session, req.seq, req.deadline, req.traceID, req.parent, req.flags, ops)
			if !bytes.Equal(payloadOf(t, enc), data) {
				t.Fatalf("txn round-trip mismatch:\n in  %x\n out %x", data, enc)
			}
		}
		_, _ = parseResponse(data)
	})
}
