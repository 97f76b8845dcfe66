package recovery

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/abort"
	"repro/internal/boosting"
	"repro/internal/cm"
	"repro/internal/htm"
	"repro/internal/integrate"
	"repro/internal/otb"
	"repro/internal/rinval"
	"repro/internal/rtc"
	"repro/internal/stm"
	"repro/internal/stm/glock"
	"repro/internal/stm/invalstm"
	"repro/internal/stm/norec"
	"repro/internal/stm/ringsw"
	"repro/internal/stm/tl2"
	"repro/internal/stm/tml"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// lifecycleRuntime is one row of the lifecycle conformance table: every
// runtime that runs transactions through cm.Handle.Run.
type lifecycleRuntime struct {
	// name is the runtime's meter and flight-recorder source name.
	name string
	// mk builds a fresh instance. atomic runs body inside one transaction;
	// counts reports the instance's always-on (commits, aborted attempts).
	mk func() (atomic func(body func()), counts func() (uint64, uint64), stop func())
	// hwAborts is the number of hardware aborts that precede the software
	// fallback. HTM's rule: hardware aborts and fallback aborts are both
	// aborted attempts, both counted (Aborts(), the meter's conflict column)
	// and both on the ring — so its row expects hwAborts more of each, after
	// the prelude events its hardware attempt emits. Zero everywhere else.
	hwAborts uint64
	prelude  []string
}

// counted is what cm.Core promotes onto every instance-based runtime.
type counted interface {
	Commits() uint64
	Aborts() uint64
}

func memRuntime[A interface {
	stm.Algorithm
	counted
}](name string, mk func() A) lifecycleRuntime {
	return lifecycleRuntime{name: name, mk: func() (func(func()), func() (uint64, uint64), func()) {
		alg := mk()
		return func(body func()) { alg.Atomic(func(stm.Tx) { body() }) },
			func() (uint64, uint64) { return alg.Commits(), alg.Aborts() }, alg.Stop
	}}
}

func integrateRuntime[A interface {
	integrate.Algorithm
	counted
}](name string, mk func() A) lifecycleRuntime {
	return lifecycleRuntime{name: name, mk: func() (func(func()), func() (uint64, uint64), func()) {
		alg := mk()
		return func(body func()) { alg.Atomic(func(*integrate.Ctx) { body() }) },
			func() (uint64, uint64) { return alg.Commits(), alg.Aborts() }, alg.Stop
	}}
}

// lifecycleRuntimes lists all thirteen. The two package-level runtimes (otb,
// boosting) have no instance to ask; their outcome counters are the
// abort.Stats the caller passes in. There is no MVOTB row: its updaters are
// OTB transactions (the runtime is an otb.Datastructure, not a lifecycle of
// its own), and its snapshot readers execute once, outside the retry runner.
var lifecycleRuntimes = []lifecycleRuntime{
	{name: "OTB", mk: func() (func(func()), func() (uint64, uint64), func()) {
		st := new(abort.Stats)
		return func(body func()) { otb.Atomic(st, func(*otb.Tx) { body() }) },
			func() (uint64, uint64) { return st.Commits, st.Aborts }, func() {}
	}},
	{name: "PessimisticBoosted", mk: func() (func(func()), func() (uint64, uint64), func()) {
		st := new(abort.Stats)
		return func(body func()) { boosting.Atomic(st, nil, func(*boosting.Tx) { body() }) },
			func() (uint64, uint64) { return st.Commits, st.Aborts }, func() {}
	}},
	integrateRuntime("OTB-NOrec", integrate.NewOTBNOrec),
	integrateRuntime("OTB-TL2", integrate.NewOTBTL2),
	memRuntime("NOrec", norec.New),
	memRuntime("TL2", tl2.New),
	memRuntime("TML", tml.New),
	memRuntime("RingSW", ringsw.New),
	memRuntime("InvalSTM", invalstm.New),
	memRuntime("CGL", glock.New),
	memRuntime("RTC", func() *rtc.STM { return rtc.New(rtc.Options{}) }),
	memRuntime("RInval-V1", func() *rinval.STM { return rinval.New(rinval.V1) }),
	{name: "HybridHTM", hwAborts: 1, prelude: []string{"HWAttempt", "Abort(conflict)", "Fallback"},
		mk: func() (func(func()), func() (uint64, uint64), func()) {
			// Two reads against a one-word hardware read bound: the hardware
			// attempt dies of capacity before body runs, so body's own aborts
			// all happen on the software fallback.
			tm := htm.New(htm.Options{ReadCap: 1})
			cells := mkCells(2)
			return func(body func()) {
					tm.Atomic(func(tx stm.Tx) {
						tx.Read(cells[0])
						tx.Read(cells[1])
						body()
					})
				},
				func() (uint64, uint64) { return tm.Commits(), tm.Aborts() }, tm.Stop
		}},
}

// lifecycleKinds names the events the runner (and HTM's prelude) stamp, after
// the trace.Local method that emits each.
var lifecycleKinds = map[trace.Kind]string{
	trace.EvTxStart: "TxStart", trace.EvAttemptStart: "AttemptStart",
	trace.EvCommitBegin: "CommitBegin", trace.EvCommitEnd: "CommitEnd",
	trace.EvTxEnd: "TxEnd", trace.EvEscalate: "Escalated",
	trace.EvHWAttempt: "HWAttempt", trace.EvFallback: "Fallback",
}

// lifecycleEvents returns the runtime's lifecycle events currently in the
// flight recorder, in order; algorithm events (reads, locks, validations,
// pauses) are not part of the contract and are dropped.
func lifecycleEvents(name string) []string {
	var out []string
	for _, e := range trace.Default.Snapshot() {
		if e.Runtime != name {
			continue
		}
		if e.Kind == trace.EvAbort {
			out = append(out, fmt.Sprintf("Abort(%s)", e.Reason))
		} else if s, ok := lifecycleKinds[e.Kind]; ok {
			out = append(out, s)
		}
	}
	return out
}

// armLifecycleObservers turns on telemetry and the flight recorder (sampling
// every transaction) for one test.
func armLifecycleObservers(t *testing.T) {
	t.Helper()
	was := telemetry.Default.Enabled()
	telemetry.Enable()
	trace.Enable(1)
	t.Cleanup(func() {
		telemetry.Default.SetEnabled(was)
		trace.Disable()
		trace.Default.Reset()
	})
}

// TestLifecycleConformance is the one statement of what every runtime's
// transaction looks like from outside: a body that aborts once with Conflict
// and then commits is one commit, one conflict abort, one commit-phase
// observation, and the same seven ring events in the same order, whichever
// algorithm ran it. The runner stamps all of it; this test is what keeps a
// runtime from growing a private variant.
func TestLifecycleConformance(t *testing.T) {
	armLifecycleObservers(t)
	for _, rt := range lifecycleRuntimes {
		t.Run(rt.name, func(t *testing.T) {
			atomic, counts, stop := rt.mk()
			defer stop()
			trace.Default.Reset()
			before := telemetry.M(rt.name).Snapshot()

			calls := 0
			atomic(func() {
				calls++
				if calls == 1 {
					abort.Retry(abort.Conflict)
				}
			})

			after := telemetry.M(rt.name).Snapshot()
			if d := after.Commits - before.Commits; d != 1 {
				t.Errorf("meter commits +%d, want +1", d)
			}
			if d := after.Aborts[abort.Conflict] - before.Aborts[abort.Conflict]; d != 1+rt.hwAborts {
				t.Errorf("meter conflict aborts +%d, want +%d", d, 1+rt.hwAborts)
			}
			if d := after.TotalAborts() - before.TotalAborts(); d != 1+rt.hwAborts {
				t.Errorf("meter total aborts +%d, want +%d", d, 1+rt.hwAborts)
			}
			if d := after.CommitLatency.Total - before.CommitLatency.Total; d != 1 {
				t.Errorf("commit-phase histogram +%d observations, want +1", d)
			}
			if d := after.TxLatency.Total - before.TxLatency.Total; d != 1 {
				t.Errorf("transaction-latency histogram +%d observations, want +1", d)
			}
			if c, a := counts(); c != 1 || a != 1+rt.hwAborts {
				t.Errorf("Commits()=%d Aborts()=%d, want 1 and %d", c, a, 1+rt.hwAborts)
			}
			want := append([]string{"TxStart"}, rt.prelude...)
			want = append(want, "AttemptStart", "Abort(conflict)", "AttemptStart", "CommitBegin", "CommitEnd", "TxEnd")
			if got := lifecycleEvents(rt.name); !reflect.DeepEqual(got, want) {
				t.Errorf("ring events:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestLifecyclePanicConformance: a foreign panic in the body is, on every
// runtime, exactly one Panicked abort, a closed span, a descriptor that
// commits the next transaction, and an open serial gate.
func TestLifecyclePanicConformance(t *testing.T) {
	armLifecycleObservers(t)
	boom := errors.New("boom")
	for _, rt := range lifecycleRuntimes {
		t.Run(rt.name, func(t *testing.T) {
			atomic, counts, stop := rt.mk()
			defer stop()
			trace.Default.Reset()
			before := telemetry.M(rt.name).Snapshot()

			func() {
				defer func() {
					if p := recover(); p != boom {
						t.Fatalf("recovered %v, want the body's panic", p)
					}
				}()
				atomic(func() { panic(boom) })
			}()

			after := telemetry.M(rt.name).Snapshot()
			if d := after.RecoveredPanics() - before.RecoveredPanics(); d != 1 {
				t.Errorf("meter panicked aborts +%d, want +1", d)
			}
			if d := after.TotalAborts() - before.TotalAborts(); d != 1+rt.hwAborts {
				t.Errorf("meter total aborts +%d, want +%d", d, 1+rt.hwAborts)
			}
			want := append([]string{"TxStart"}, rt.prelude...)
			want = append(want, "AttemptStart", "Abort(panicked)", "TxEnd")
			if got := lifecycleEvents(rt.name); !reflect.DeepEqual(got, want) {
				t.Errorf("ring events:\n got %v\nwant %v", got, want)
			}
			if cm.SerialActive() {
				t.Error("serial gate closed after the panic")
			}

			// The descriptor went back to its pool clean: the same instance
			// commits the next transaction (a guard catches a leaked lock).
			done := make(chan struct{})
			go func() {
				defer close(done)
				atomic(func() {})
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("transaction after the panic never committed")
			}
			if c, a := counts(); c != 1 || a != 1+2*rt.hwAborts {
				t.Errorf("Commits()=%d Aborts()=%d, want 1 and %d", c, a, 1+2*rt.hwAborts)
			}
		})
	}
}
