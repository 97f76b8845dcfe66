package recovery

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/boosting"
	"repro/internal/chaos/failpoint"
	"repro/internal/chaos/leak"
	"repro/internal/cm"
	"repro/internal/conc"
	"repro/internal/htm"
	"repro/internal/integrate"
	"repro/internal/mem"
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
)

// scenario provokes one failpoint with a one-shot panic and proves the
// owning runtime survives it.
type scenario struct {
	fp string
	// runtime names the runtime when a second one shares fp: the integrated
	// contexts fire their base STM's commit failpoint.
	runtime string
	// recovered marks faults the runtime recovers out of the caller's
	// sight (server-side drops): the panic must NOT reach the caller, and
	// firing is observed through the hit counter instead.
	recovered bool
	// mk builds a fresh structure and returns run (one read-write
	// transaction keyed by k), an optional stirrer (a concurrent workload
	// some failpoints need to become reachable, e.g. clock movement for
	// NOrec's validation), and a teardown.
	mk func(t *testing.T) (run func(k int64), stir func(k int64), stop func())
}

// name is the scenario's subtest name: fp, tagged with runtime if set.
func (sc scenario) name() string {
	if sc.runtime == "" {
		return sc.fp
	}
	return sc.fp + "@" + sc.runtime
}

// mkCells allocates n zeroed cells.
func mkCells(n int) []*mem.Cell {
	cells := make([]*mem.Cell, n)
	for i := range cells {
		cells[i] = mem.NewCell(0)
	}
	return cells
}

// memAlg is the generic scenario body for memory STMs: increment one cell,
// read a second so commit-time validation has work to do.
func memAlg(alg stm.Algorithm) (func(int64), func(int64), func()) {
	cells := mkCells(8)
	run := func(k int64) {
		alg.Atomic(func(tx stm.Tx) {
			i := int(k) % len(cells)
			v := tx.Read(cells[i])
			tx.Read(cells[(i+1)%len(cells)])
			tx.Write(cells[i], v+1)
		})
	}
	return run, nil, alg.Stop
}

// otbSet is the scenario body for the OTB failpoints: a lookup plus an
// insert, so commits carry both semantic read and write sets.
func otbSet() (func(int64), func(int64), func()) {
	set := otb.NewListSet()
	run := func(k int64) {
		otb.Atomic(nil, func(tx *otb.Tx) {
			set.Contains(tx, (k+1)%16)
			set.Add(tx, k%16)
		})
	}
	return run, nil, func() {}
}

// boostSet inserts three distinct keys per transaction so the partial-lock
// window (second and third abstract lock acquisitions) is exercised.
func boostSet() (func(int64), func(int64), func()) {
	set := boosting.NewSet(conc.NewLazyList(), 64)
	run := func(k int64) {
		boosting.Atomic(nil, nil, func(tx *boosting.Tx) {
			set.Add(tx, k%16)
			set.Add(tx, (k+5)%16)
			set.Add(tx, (k+11)%16)
		})
	}
	return run, nil, func() {}
}

// integrateAlg mixes a semantic set operation with raw memory accesses, the
// workload of the integration framework's commit failpoints.
func integrateAlg(alg integrate.Algorithm) (func(int64), func(int64), func()) {
	set := otb.NewListSet()
	cell := mem.NewCell(0)
	run := func(k int64) {
		alg.Atomic(func(ctx *integrate.Ctx) {
			set.Add(ctx.Sem(), k%16)
			ctx.Write(cell, ctx.Read(cell)+1)
		})
	}
	return run, nil, alg.Stop
}

// norecValidate needs the clock to move mid-transaction before validation
// (and its failpoint) is reachable, so it pairs a long-read-set victim with
// a stirrer that commits writes concurrently. s is NOrec, or RTC, whose
// clients validate with NOrec's code.
func norecValidate(s stm.Algorithm) (func(int64), func(int64), func()) {
	cells := mkCells(8)
	run := func(k int64) {
		s.Atomic(func(tx stm.Tx) {
			for r := 0; r < 64; r++ {
				tx.Read(cells[r%len(cells)])
			}
			v := tx.Read(cells[0])
			tx.Write(cells[0], v+1)
		})
	}
	stir := func(k int64) {
		s.Atomic(func(tx stm.Tx) {
			tx.Write(cells[int(k)%len(cells)], uint64(k))
		})
	}
	return run, stir, s.Stop
}

// htmSoftware forces the capacity fallback: more writes than the hardware
// bound, so every transaction commits on the software path.
func htmSoftware() (func(int64), func(int64), func()) {
	tm := htm.New(htm.Options{WriteCap: 4})
	cells := mkCells(8)
	run := func(k int64) {
		tm.Atomic(func(tx stm.Tx) {
			for i := 0; i < 6; i++ {
				v := tx.Read(cells[i])
				tx.Write(cells[i], v+1)
			}
		})
	}
	return run, nil, tm.Stop
}

// scenarios covers every registered failpoint (TestEveryFailpointHasScenario
// enforces it), one scenario per failpoint and runtime.
var scenarios = []scenario{
	{fp: "otb.validate.mid", mk: func(t *testing.T) (func(int64), func(int64), func()) { return otbSet() }},
	{fp: "otb.commit.pre-lock", mk: func(t *testing.T) (func(int64), func(int64), func()) { return otbSet() }},
	{fp: "otb.commit.post-lock", mk: func(t *testing.T) (func(int64), func(int64), func()) { return otbSet() }},
	{fp: "boosting.lock.partial", mk: func(t *testing.T) (func(int64), func(int64), func()) { return boostSet() }},
	{fp: "boosting.commit.pre", mk: func(t *testing.T) (func(int64), func(int64), func()) { return boostSet() }},
	{fp: "norec.validate.mid", mk: func(t *testing.T) (func(int64), func(int64), func()) { return norecValidate(norec.New()) }},
	{fp: "norec.commit.locked", mk: func(t *testing.T) (func(int64), func(int64), func()) { return memAlg(norec.New()) }},
	{fp: "tl2.commit.locked", mk: func(t *testing.T) (func(int64), func(int64), func()) { return memAlg(tl2.New()) }},
	{fp: "tml.commit.locked", mk: func(t *testing.T) (func(int64), func(int64), func()) { return memAlg(tml.New()) }},
	{fp: "ringsw.commit.locked", mk: func(t *testing.T) (func(int64), func(int64), func()) { return memAlg(ringsw.New()) }},
	{fp: "invalstm.commit.locked", mk: func(t *testing.T) (func(int64), func(int64), func()) { return memAlg(invalstm.New()) }},
	{fp: "glock.commit.pre", mk: func(t *testing.T) (func(int64), func(int64), func()) { return memAlg(glock.New()) }},
	{fp: "norec.commit.locked", runtime: "OTB-NOrec", mk: func(t *testing.T) (func(int64), func(int64), func()) { return integrateAlg(integrate.NewOTBNOrec()) }},
	// OTB-TL2 fires it with both the orecs and the semantic locks held, the
	// deepest lock nesting in the repository: recovery unwinds both layers.
	{fp: "tl2.commit.locked", runtime: "OTB-TL2", mk: func(t *testing.T) (func(int64), func(int64), func()) { return integrateAlg(integrate.NewOTBTL2()) }},
	{fp: "norec.validate.mid", runtime: "RTC", mk: func(t *testing.T) (func(int64), func(int64), func()) { return norecValidate(rtc.New(rtc.Options{})) }},
	{fp: "rtc.commit.pre", mk: func(t *testing.T) (func(int64), func(int64), func()) { return memAlg(rtc.New(rtc.Options{})) }},
	{fp: "rtc.server.drop", recovered: true, mk: func(t *testing.T) (func(int64), func(int64), func()) { return memAlg(rtc.New(rtc.Options{})) }},
	{fp: "rinval.commit.pre", mk: func(t *testing.T) (func(int64), func(int64), func()) { return memAlg(rinval.New(rinval.V1)) }},
	{fp: "rinval.server.drop", recovered: true, mk: func(t *testing.T) (func(int64), func(int64), func()) { return memAlg(rinval.New(rinval.V1)) }},
	{fp: "htm.hw.commit", mk: func(t *testing.T) (func(int64), func(int64), func()) { return memAlg(htm.New(htm.Options{})) }},
	{fp: "htm.sw.locked", mk: func(t *testing.T) (func(int64), func(int64), func()) { return htmSoftware() }},
}

// runRecover runs one transaction, converting an injected panic into its
// *failpoint.PanicValue. Any other panic is a genuine bug and propagates.
func runRecover(run func(int64), k int64, saw *atomic.Bool) (pv *failpoint.PanicValue) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if v, ok := p.(*failpoint.PanicValue); ok {
			saw.Store(true)
			pv = v
			return
		}
		panic(p)
	}()
	run(k)
	return nil
}

// TestCrashRecovery arms each failpoint with a one-shot panic, provokes it,
// and then requires 100 follow-up transactions on the same structure to
// commit — with every lock released, the serial gate open, and no goroutine
// leaked. Scenarios share the process-wide serial gate and failpoint
// registry, so they run sequentially.
func TestCrashRecovery(t *testing.T) {
	failpoint.DisarmAll()
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name(), func(t *testing.T) {
			defer leak.Check(t)()
			fp, ok := failpoint.Lookup(sc.fp)
			if !ok {
				t.Fatalf("failpoint %q is not registered", sc.fp)
			}
			run, stir, stop := sc.mk(t)
			defer stop()
			defer failpoint.Arm(sc.fp, failpoint.Spec{Action: failpoint.Panic, Nth: 1})()

			var saw atomic.Bool
			quit := make(chan struct{})
			done := make(chan struct{})
			if stir != nil {
				go func() {
					defer close(done)
					for k := int64(1000); ; k++ {
						select {
						case <-quit:
							return
						default:
						}
						runRecover(stir, k, &saw)
					}
				}()
			} else {
				close(done)
			}

			deadline := time.Now().Add(20 * time.Second)
			for k := int64(0); fp.Hits() == 0; k++ {
				if time.Now().After(deadline) {
					close(quit)
					<-done
					t.Fatalf("failpoint %s never fired", sc.fp)
				}
				pv := runRecover(run, k, &saw)
				if pv == nil {
					continue
				}
				if pv.Name != sc.fp {
					t.Fatalf("wrong failpoint fired: %s (want %s)", pv.Name, sc.fp)
				}
			}
			close(quit)
			<-done

			if sc.recovered && saw.Load() {
				t.Fatalf("failpoint %s is recovered server-side, but its panic reached a caller", sc.fp)
			}
			if !sc.recovered && !saw.Load() {
				t.Fatalf("failpoint %s fired but the panic never reached the caller (swallowed?)", sc.fp)
			}

			// The crash is behind us; the structure must still work. A stuck
			// lock or wedged server would hang or panic these (the armed
			// one-shot trigger is already consumed).
			for k := int64(0); k < 100; k++ {
				run(k)
			}
			if cm.SerialActive() {
				t.Fatalf("serial gate still closed after recovering from %s", sc.fp)
			}
		})
	}
}

// TestEveryFailpointHasScenario pins the suite to the registry: a new
// failpoint cannot be added without a crash-recovery scenario.
func TestEveryFailpointHasScenario(t *testing.T) {
	covered := make(map[string]bool)
	named := make(map[string]bool)
	for _, sc := range scenarios {
		covered[sc.fp] = true
		if named[sc.name()] {
			t.Errorf("duplicate scenario %s", sc.name())
		}
		named[sc.name()] = true
		if _, ok := failpoint.Lookup(sc.fp); !ok {
			t.Errorf("scenario %s names an unregistered failpoint", sc.fp)
		}
	}
	for _, name := range failpoint.Names() {
		if !covered[name] {
			t.Errorf("failpoint %s has no crash-recovery scenario", name)
		}
	}
}
