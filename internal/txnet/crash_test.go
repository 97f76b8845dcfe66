package txnet

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/lincheck"
	"repro/internal/wal"
)

// The crash-kill harness: a durable txstore runs in a CHILD PROCESS (the
// re-executed test binary), a workload drives it over real TCP, and the
// child is killed — by SIGKILL at a random moment or by an armed WAL
// failpoint crashing it from the inside. A fresh child then recovers the
// same WAL directory and the parent verifies the durability contract:
//
//	(a) every acknowledged commit survives,
//	(b) a resumed session retrying its last sequence number gets the
//	    cached verdict back, byte-for-byte,
//	(c) the recovered history of the contended keys is linearizable.
//
// In-flight requests at the kill are resolved through the session
// protocol: the restarted server's lastSeq reveals whether the request
// committed (resend it, record the replayed verdict) or vanished (drop
// it — it provably never applied).

// TestMain turns the test binary into the crash child when re-executed by
// the harness; TXNET_CRASH_* carries the configuration (env, not flags,
// so the child never touches the testing flag set).
func TestMain(m *testing.M) {
	if os.Getenv("TXNET_CRASH_CHILD") == "1" {
		crashChildMain()
		return
	}
	os.Exit(m.Run())
}

// crashChildMain is the child: open the durable store, serve it, print one
// READY line with the recovery summary, then wait to be killed. Exit code
// 3 marks setup failures so the parent can tell them from crash exits.
func crashChildMain() {
	policy, err := wal.ParsePolicy(os.Getenv("TXNET_CRASH_FSYNC"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(3)
	}
	snap, err := strconv.Atoi(os.Getenv("TXNET_CRASH_SNAP"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(3)
	}
	dur, err := OpenDurable(NewOTBStore(), DurabilityOptions{
		Dir:           os.Getenv("TXNET_CRASH_DIR"),
		Fsync:         policy,
		SnapshotEvery: snap,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(3)
	}
	srv, err := Listen("127.0.0.1:0", Options{Durable: dur, SessionTTL: time.Hour})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(3)
	}
	rec := dur.Recovery()
	fmt.Printf("READY %s records=%d commits=%d torn=%v sessions=%d\n",
		srv.Addr(), rec.RecordsReplayed, rec.CommitsReplayed, rec.TornTail, rec.SessionsRestored)
	select {}
}

// childRecovery is the parsed READY line.
type childRecovery struct {
	records, commits, sessions int
	torn                       bool
}

// crashChild is one child process under parent control.
type crashChild struct {
	cmd    *exec.Cmd
	addr   string
	rec    childRecovery
	stderr *bytes.Buffer
	exited chan struct{}
	werr   error
}

// startChild launches the child. With waitReady it blocks until the READY
// line arrives (or the child dies / 30s pass); without, stdout is
// discarded — the caller intends to kill the child mid-recovery.
func startChild(t *testing.T, dir, fsync string, snap int, failpoints string, waitReady bool) (*crashChild, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"TXNET_CRASH_CHILD=1",
		"TXNET_CRASH_DIR="+dir,
		"TXNET_CRASH_FSYNC="+fsync,
		"TXNET_CRASH_SNAP="+strconv.Itoa(snap),
		"FAILPOINTS="+failpoints,
	)
	ch := &crashChild{cmd: cmd, stderr: &bytes.Buffer{}, exited: make(chan struct{})}
	cmd.Stderr = ch.stderr
	ready := make(chan error, 1)
	if waitReady {
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		go func() {
			sc := bufio.NewScanner(out)
			for sc.Scan() {
				line := sc.Text()
				var tornStr string
				if n, _ := fmt.Sscanf(line, "READY %s records=%d commits=%d torn=%s sessions=%d",
					&ch.addr, &ch.rec.records, &ch.rec.commits, &tornStr, &ch.rec.sessions); n == 5 {
					ch.rec.torn = tornStr == "true"
					ready <- nil
					break
				}
			}
			_, _ = io.Copy(io.Discard, out) // drain until the child dies
		}()
	} else {
		cmd.Stdout = io.Discard
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		ch.werr = cmd.Wait()
		close(ch.exited)
	}()
	t.Cleanup(func() { ch.kill(); <-ch.exited })
	if !waitReady {
		return ch, nil
	}
	select {
	case err := <-ready:
		return ch, err
	case <-ch.exited:
		return ch, fmt.Errorf("child exited before READY (%v)\nstderr:\n%s", ch.werr, ch.stderr.String())
	case <-time.After(30 * time.Second):
		ch.kill()
		return ch, fmt.Errorf("child never became READY\nstderr:\n%s", ch.stderr.String())
	}
}

func (ch *crashChild) kill() {
	if ch.cmd.Process != nil {
		_ = ch.cmd.Process.Kill() // SIGKILL: no defers, no flushes, no mercy
	}
}

func (ch *crashChild) waitExit(t *testing.T, d time.Duration) {
	t.Helper()
	select {
	case <-ch.exited:
	case <-time.After(d):
		t.Fatalf("child did not exit within %v\nstderr:\n%s", d, ch.stderr.String())
	}
}

// ackedTxn is one transaction the workload sent: ops always, results only
// once acknowledged.
type ackedTxn struct {
	seq     uint64
	ops     []Op
	results []OpResult
}

// crashWorker is one session's view of the run, examined after the crash.
type crashWorker struct {
	id         int
	sess       uint64
	seq        uint64 // last acknowledged seq
	lastMutAck uint64 // last acknowledged MUTATING seq
	acked      []ackedTxn
	inflight   *ackedTxn // sent, unacknowledged at the crash
	fatal      error     // protocol violation observed by the worker
}

// wconn is a raw client connection whose failures are data, not test
// aborts — a dead connection is the expected signature of the kill.
type wconn struct {
	c  net.Conn
	br *bufio.Reader
}

func dialCrash(addr string) (*wconn, error) {
	c, err := net.DialTimeout("tcp", addr, 3*time.Second)
	if err != nil {
		return nil, err
	}
	return &wconn{c: c, br: bufio.NewReader(c)}, nil
}

func (w *wconn) rt(frame []byte) (response, error) {
	_ = w.c.SetDeadline(time.Now().Add(3 * time.Second))
	if _, err := w.c.Write(frame); err != nil {
		return response{}, err
	}
	frame, err := readFrame(w.br, nil)
	if err != nil {
		return response{}, err
	}
	return parseResponse(frame)
}

func (w *wconn) close() { _ = w.c.Close() }

// sendTxn drives one transaction to an ack or a connection failure,
// honouring overload hints. ok=false means the connection died — the
// caller's inflight bookkeeping takes over.
func sendTxn(conn *wconn, w *crashWorker, seq uint64, ops []Op) (response, bool) {
	for {
		resp, err := conn.rt(appendTxn(nil, w.sess, seq, 0, 0, 0, 0, ops))
		if err != nil {
			return response{}, false
		}
		if resp.status == StatusOverloaded {
			d := resp.retryAfter
			if d <= 0 {
				d = time.Millisecond
			}
			time.Sleep(d)
			continue
		}
		return resp, true
	}
}

const (
	nDisjoint   = 3
	nShared     = 2
	auditThread = nShared // lincheck thread for post-recovery reads
	sharedKeys  = 8
)

// disjointBase returns worker i's private key range start. Ranges never
// overlap each other or the shared lincheck keys.
func disjointBase(i int) int64 { return int64(1000 * (i + 1)) }

func isMutOp(c OpCode) bool {
	switch c {
	case OpAdd, OpRemove, OpPut, OpDelete, OpRemoveMin:
		return true
	}
	return false
}

// runDisjoint hammers the child with small mutating batches on a private
// key range (set struct 0, map struct 1) until the connection dies.
func runDisjoint(w *crashWorker, addr string, rng *rand.Rand) {
	conn, err := dialCrash(addr)
	if err != nil {
		return
	}
	defer conn.close()
	h, err := conn.rt(appendHello(nil, 0))
	if err != nil || h.status != StatusHello {
		return
	}
	w.sess = h.sessionID
	base := disjointBase(w.id)
	for {
		n := 1 + rng.Intn(3)
		ops := make([]Op, n)
		for j := range ops {
			k := base + rng.Int63n(200)
			switch rng.Intn(4) {
			case 0:
				ops[j] = Op{Code: OpAdd, Struct: 0, Key: k}
			case 1:
				ops[j] = Op{Code: OpRemove, Struct: 0, Key: k}
			case 2:
				ops[j] = Op{Code: OpPut, Struct: 1, Key: k, Val: 1 + rng.Uint64()%1000}
			default:
				ops[j] = Op{Code: OpDelete, Struct: 1, Key: k}
			}
		}
		seq := w.seq + 1
		w.inflight = &ackedTxn{seq: seq, ops: ops}
		resp, ok := sendTxn(conn, w, seq, ops)
		if !ok {
			return
		}
		switch resp.status {
		case StatusOK:
			w.inflight.results = resp.results
			w.acked = append(w.acked, *w.inflight)
			w.inflight = nil
			w.seq, w.lastMutAck = seq, seq
		case StatusShutdown:
			return
		default:
			w.fatal = fmt.Errorf("disjoint worker %d seq %d: unexpected %s", w.id, seq, resp.status)
			return
		}
	}
}

// runShared issues single-op set transactions on the contended keys,
// recording every completed op for the linearizability check. The op left
// open at the crash is resolved (or dropped) by the verifier.
func runShared(w *crashWorker, addr string, rng *rand.Rand, rec *lincheck.Recorder, thread int) {
	conn, err := dialCrash(addr)
	if err != nil {
		return
	}
	defer conn.close()
	h, err := conn.rt(appendHello(nil, 0))
	if err != nil || h.status != StatusHello {
		return
	}
	w.sess = h.sessionID
	for {
		k := rng.Int63n(sharedKeys)
		var op Op
		var kind lincheck.Kind
		switch rng.Intn(3) {
		case 0:
			op, kind = Op{Code: OpAdd, Struct: 0, Key: k}, lincheck.Add
		case 1:
			op, kind = Op{Code: OpRemove, Struct: 0, Key: k}, lincheck.Remove
		default:
			op, kind = Op{Code: OpContains, Struct: 0, Key: k}, lincheck.Contains
		}
		seq := w.seq + 1
		rec.Invoke(thread, kind, k, 0)
		w.inflight = &ackedTxn{seq: seq, ops: []Op{op}}
		resp, ok := sendTxn(conn, w, seq, []Op{op})
		if !ok {
			return
		}
		switch resp.status {
		case StatusOK:
			rec.Return(thread, resp.results[0].Out, resp.results[0].OK)
			w.inflight.results = resp.results
			w.acked = append(w.acked, *w.inflight)
			w.inflight = nil
			w.seq = seq
			if isMutOp(op.Code) {
				w.lastMutAck = seq
			}
		case StatusShutdown:
			return
		default:
			w.fatal = fmt.Errorf("shared worker %d seq %d: unexpected %s", w.id, seq, resp.status)
			return
		}
	}
}

// crashMode is how one round kills the child.
type crashMode int

const (
	modeSigkill crashMode = iota
	modeTorn              // wal.append.torn crashes the child from inside
	modeFsync             // wal.fsync.fail crashes the child from inside
)

func (m crashMode) String() string {
	switch m {
	case modeTorn:
		return "torn-append"
	case modeFsync:
		return "fsync-fail"
	default:
		return "sigkill"
	}
}

func TestCrashKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-kill harness re-execs the test binary; skipped in -short")
	}
	rounds := 20
	seed := chaosSeed(t)
	for r := 0; r < rounds; r++ {
		r := r
		t.Run(fmt.Sprintf("round-%02d", r), func(t *testing.T) {
			runCrashRound(t, r, int64(seed)+int64(r)*7919)
		})
	}
}

func runCrashRound(t *testing.T, round int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := filepath.Join(t.TempDir(), "wal")
	snapEvery := []int{-1, 16, 64}[round%3]
	mode := modeSigkill
	switch round % 5 {
	case 3:
		mode = modeTorn
	case 4:
		mode = modeFsync
	}
	doubleCrash := mode == modeSigkill && round%6 == 5
	t.Logf("mode=%s snapshot-every=%d double-crash=%v seed=%d", mode, snapEvery, doubleCrash, seed)

	// Arm the internal crash after the session-open appends (≤ 5) are
	// through, so the fault lands on a commit.
	var failpoints string
	k := 8 + rng.Intn(24)
	switch mode {
	case modeTorn:
		failpoints = fmt.Sprintf("wal.append.torn=panic@nth:%d", k)
	case modeFsync:
		failpoints = fmt.Sprintf("wal.fsync.fail=panic@nth:%d", k)
	}

	child, err := startChild(t, dir, "always", snapEvery, failpoints, true)
	if err != nil {
		t.Fatalf("start child: %v", err)
	}

	rec := lincheck.NewRecorder(nShared + 1)
	workers := make([]*crashWorker, nDisjoint+nShared)
	var wg sync.WaitGroup
	for i := 0; i < nDisjoint; i++ {
		w := &crashWorker{id: i}
		workers[i] = w
		wg.Add(1)
		go func(w *crashWorker, s int64) {
			defer wg.Done()
			runDisjoint(w, child.addr, rand.New(rand.NewSource(s)))
		}(w, seed+int64(i)+100)
	}
	for i := 0; i < nShared; i++ {
		w := &crashWorker{id: nDisjoint + i}
		workers[nDisjoint+i] = w
		wg.Add(1)
		go func(w *crashWorker, thread int, s int64) {
			defer wg.Done()
			runShared(w, child.addr, rand.New(rand.NewSource(s)), rec, thread)
		}(w, i, seed+int64(i)+200)
	}

	if mode == modeSigkill {
		time.Sleep(time.Duration(20+rng.Intn(100)) * time.Millisecond)
		child.kill()
	}
	// Internal-crash modes end themselves once the workload trips the
	// failpoint; the workers' commit stream guarantees it trips.
	child.waitExit(t, 30*time.Second)
	wg.Wait()
	for _, w := range workers {
		if w.fatal != nil {
			t.Fatalf("workload: %v", w.fatal)
		}
	}

	if doubleCrash {
		// Kill the NEXT child mid-recovery: replay is stretched by the
		// stall failpoint and the process killed inside it. Recovery must
		// be idempotent — the final child sees the same truth.
		mid, err := startChild(t, dir, "always", snapEvery, "wal.replay.stall=delay:1ms", false)
		if err != nil {
			t.Fatalf("start mid child: %v", err)
		}
		time.Sleep(time.Duration(rng.Intn(20)) * time.Millisecond)
		mid.kill()
		mid.waitExit(t, 10*time.Second)
	}

	final, err := startChild(t, dir, "always", snapEvery, "", true)
	if err != nil {
		t.Fatalf("start recovery child: %v", err)
	}
	t.Logf("recovered: %+v", final.rec)
	if mode == modeTorn && !doubleCrash && !final.rec.torn {
		// The torn append poisoned the log mid-record, so recovery must
		// have truncated a torn tail (no intermediate child to eat it).
		t.Errorf("torn-append round recovered without a torn tail: %+v", final.rec)
	}

	verifyCrashRound(t, final.addr, workers, rec, seed)
	if t.Failed() {
		copyWALArtifacts(t, dir)
	}
}

// verifyCrashRound checks the three durability criteria against the
// recovered child.
func verifyCrashRound(t *testing.T, addr string, workers []*crashWorker, rec *lincheck.Recorder, seed int64) {
	t.Helper()
	for _, w := range workers {
		if w.sess == 0 {
			continue // crashed before the session opened; nothing promised
		}
		conn, err := dialCrash(addr)
		if err != nil {
			t.Fatalf("dial recovered server: %v", err)
		}
		h, err := conn.rt(appendHello(nil, w.sess))
		if err != nil || h.status != StatusHello {
			t.Fatalf("worker %d: resume session %d: %+v err=%v", w.id, w.sess, h, err)
		}
		lastSeq := h.lastSeq
		disjoint := w.id < nDisjoint

		// The recovered lastSeq must be explainable: at least the last
		// acked mutating seq (acked ⇒ fsynced ⇒ replayed), at most the
		// last seq ever sent. Disjoint workers only send mutating txns,
		// so for them the bound is exact: last acked or the in-flight.
		hi := w.seq
		if w.inflight != nil {
			hi = w.inflight.seq
		}
		if lastSeq < w.lastMutAck || lastSeq > hi {
			t.Fatalf("worker %d: recovered lastSeq %d outside [%d,%d]", w.id, lastSeq, w.lastMutAck, hi)
		}
		if disjoint && lastSeq != w.seq && !(w.inflight != nil && lastSeq == w.inflight.seq) {
			t.Fatalf("worker %d: recovered lastSeq %d, want %d or in-flight", w.id, lastSeq, w.seq)
		}

		// Resolve the in-flight transaction: committed iff the recovered
		// session is at its seq. Committed → the retry MUST replay the
		// cached verdict; vanished → it provably never applied.
		committedInflight := false
		if w.inflight != nil && lastSeq == w.inflight.seq {
			resp, ok := sendTxn(conn, w, w.inflight.seq, w.inflight.ops)
			if !ok || resp.status != StatusOK {
				t.Fatalf("worker %d: replay of committed in-flight seq %d: %+v", w.id, w.inflight.seq, resp)
			}
			w.inflight.results = resp.results
			committedInflight = true
			if !disjoint {
				rec.Return(w.id-nDisjoint, resp.results[0].Out, resp.results[0].OK)
			}
		}

		// Criterion (b): retry the transaction the recovered session is
		// parked on; the cached verdict must match the original ack.
		if !committedInflight && len(w.acked) > 0 && lastSeq == w.acked[len(w.acked)-1].seq {
			last := w.acked[len(w.acked)-1]
			resp, ok := sendTxn(conn, w, last.seq, last.ops)
			if !ok || resp.status != StatusOK {
				t.Fatalf("worker %d: replay of acked seq %d: %+v", w.id, last.seq, resp)
			}
			if len(resp.results) != len(last.results) {
				t.Fatalf("worker %d: replayed %d results, acked %d", w.id, len(resp.results), len(last.results))
			}
			for i := range last.results {
				if resp.results[i] != last.results[i] {
					t.Fatalf("worker %d seq %d result %d: replayed %+v, acked %+v",
						w.id, last.seq, i, resp.results[i], last.results[i])
				}
			}
		}

		// Criterion (a) for the private ranges: fold the acked txns (plus
		// a committed in-flight) into the expected final state and audit
		// every touched key through a fresh session.
		if disjoint {
			verifyDisjointState(t, addr, w, committedInflight)
		}
		conn.close()
	}

	// Criterion (c): audit the contended keys and check the whole
	// recorded history — pre-crash ops, resolved in-flights, and these
	// reads — against the sequential set model.
	conn, err := dialCrash(addr)
	if err != nil {
		t.Fatalf("dial for audit: %v", err)
	}
	defer conn.close()
	h, err := conn.rt(appendHello(nil, 0))
	if err != nil || h.status != StatusHello {
		t.Fatalf("audit hello: %+v err=%v", h, err)
	}
	audit := &crashWorker{sess: h.sessionID}
	for k := int64(0); k < sharedKeys; k++ {
		rec.Invoke(auditThread, lincheck.Contains, k, 0)
		resp, ok := sendTxn(conn, audit, uint64(k)+1, []Op{{Code: OpContains, Struct: 0, Key: k}})
		if !ok || resp.status != StatusOK {
			t.Fatalf("audit read of key %d: %+v", k, resp)
		}
		rec.Return(auditThread, resp.results[0].Out, resp.results[0].OK)
	}
	hist := rec.History()
	res := lincheck.Check(lincheck.SetModel(), hist)
	switch res.Outcome {
	case lincheck.Violation:
		path := lincheck.DumpArtifact("crash-kill", seed, res, hist, nil)
		t.Fatalf("recovered history is not linearizable: %s\nartifact: %s", res.Detail, path)
	case lincheck.Inconclusive:
		t.Logf("lincheck inconclusive on %d ops (budget)", len(hist))
	}
}

// verifyDisjointState replays worker w's acked transactions into a model
// and audits every touched key on the recovered server. The range is
// private to w, so equality must be exact — an unacked mutation that
// leaked in, or an acked one that vanished, both show up here.
func verifyDisjointState(t *testing.T, addr string, w *crashWorker, committedInflight bool) {
	t.Helper()
	wantSet := make(map[int64]bool)
	wantMap := make(map[int64]uint64)
	touchedSet := make(map[int64]bool)
	touchedMap := make(map[int64]bool)
	apply := func(tx ackedTxn) {
		for _, op := range tx.ops {
			switch op.Code {
			case OpAdd:
				wantSet[op.Key] = true
				touchedSet[op.Key] = true
			case OpRemove:
				delete(wantSet, op.Key)
				touchedSet[op.Key] = true
			case OpPut:
				wantMap[op.Key] = op.Val
				touchedMap[op.Key] = true
			case OpDelete:
				delete(wantMap, op.Key)
				touchedMap[op.Key] = true
			}
		}
	}
	for _, tx := range w.acked {
		apply(tx)
	}
	if committedInflight {
		apply(*w.inflight)
	}

	conn, err := dialCrash(addr)
	if err != nil {
		t.Fatalf("dial for state audit: %v", err)
	}
	defer conn.close()
	h, err := conn.rt(appendHello(nil, 0))
	if err != nil || h.status != StatusHello {
		t.Fatalf("state audit hello: %+v err=%v", h, err)
	}
	auditor := &crashWorker{sess: h.sessionID}
	var ops []Op
	for k := range touchedSet {
		ops = append(ops, Op{Code: OpContains, Struct: 0, Key: k})
	}
	for k := range touchedMap {
		ops = append(ops, Op{Code: OpGet, Struct: 1, Key: k})
	}
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].Struct != ops[j].Struct {
			return ops[i].Struct < ops[j].Struct
		}
		return ops[i].Key < ops[j].Key
	})
	seq := uint64(0)
	for len(ops) > 0 {
		n := len(ops)
		if n > 512 {
			n = 512
		}
		batch := ops[:n]
		ops = ops[n:]
		seq++
		resp, ok := sendTxn(conn, auditor, seq, batch)
		if !ok || resp.status != StatusOK {
			t.Fatalf("state audit batch: %+v", resp)
		}
		for i, op := range batch {
			got := resp.results[i]
			if op.Code == OpContains {
				if want := wantSet[op.Key]; got.OK != want {
					t.Errorf("worker %d: set key %d: recovered %v, want %v", w.id, op.Key, got.OK, want)
				}
			} else {
				wantVal, wantOK := wantMap[op.Key]
				if got.OK != wantOK || (wantOK && got.Out != wantVal) {
					t.Errorf("worker %d: map key %d: recovered (%d,%v), want (%d,%v)",
						w.id, op.Key, got.Out, got.OK, wantVal, wantOK)
				}
			}
		}
	}
}

// copyWALArtifacts preserves the WAL directory of a failed round under
// $WAL_ARTIFACTS (the CI durability job uploads it).
func copyWALArtifacts(t *testing.T, dir string) {
	dst := os.Getenv("WAL_ARTIFACTS")
	if dst == "" {
		return
	}
	out := filepath.Join(dst, filepath.Base(t.Name()))
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Logf("wal artifact: %v", err)
		return
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Logf("wal artifact: %v", err)
		return
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err == nil {
			_ = os.WriteFile(filepath.Join(out, e.Name()), b, 0o644)
		}
	}
	t.Logf("WAL preserved in %s", out)
}
