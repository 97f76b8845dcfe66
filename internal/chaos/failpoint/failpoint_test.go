package failpoint

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/abort"
)

// The test points are registered once per process, as production points
// are: New panics on a duplicate name, so registering inside a test
// function would fail the second run of -count=2.
var (
	noopPoint  = New("test.noop.point")
	nthPoint   = New("test.nth.point")
	everyPoint = New("test.every.point")
	probPoint  = New("test.prob.point")
	delayPoint = New("test.delay.point")
	applyPoint = New("test.apply.point")
	namesPoint = New("test.names.point")
)

// runs numbers the names that a test must register itself (to check what
// registration does), so that each run registers a fresh one.
var runs atomic.Int64

func freshName(prefix string) string { return fmt.Sprintf("%s.%d", prefix, runs.Add(1)) }

func TestDisarmedIsNoop(t *testing.T) {
	fp := noopPoint
	defer Disarm(fp.Name())
	for i := 0; i < 1000; i++ {
		fp.Hit()
	}
	if fp.Armed() {
		t.Fatal("never armed, but Armed() = true")
	}
}

func TestNthTrigger(t *testing.T) {
	fp := nthPoint
	defer fp.Disarm()
	fp.Arm(Spec{Action: Panic, Nth: 3})
	hitPanicked := func() (panicked bool) {
		defer func() {
			if p := recover(); p != nil {
				pv, ok := p.(*PanicValue)
				if !ok {
					t.Fatalf("panic value %T, want *PanicValue", p)
				}
				if pv.Name != "test.nth.point" || pv.Hit != 3 {
					t.Fatalf("panic value %+v, want name test.nth.point hit 3", pv)
				}
				panicked = true
			}
		}()
		fp.Hit()
		return false
	}
	for i := 1; i <= 10; i++ {
		got := hitPanicked()
		if want := i == 3; got != want {
			t.Fatalf("hit %d: panicked = %v, want %v", i, got, want)
		}
	}
}

func TestEveryTrigger(t *testing.T) {
	fp := everyPoint
	defer fp.Disarm()
	fp.Arm(Spec{Action: Abort, Every: 4})
	fired := 0
	for i := 1; i <= 12; i++ {
		func() {
			defer func() {
				if p := recover(); p != nil {
					if _, ok := p.(abort.Signal); !ok {
						panic(p)
					}
					fired++
				}
			}()
			fp.Hit()
		}()
	}
	if fired != 3 {
		t.Fatalf("every:4 over 12 hits fired %d times, want 3", fired)
	}
}

func TestProbDeterministicPerSeed(t *testing.T) {
	fp := probPoint
	defer fp.Disarm()
	run := func(seed uint64) []int {
		fp.Arm(Spec{Action: Abort, Prob: 0.3, Seed: seed})
		var fires []int
		for i := 1; i <= 200; i++ {
			func() {
				defer func() {
					if p := recover(); p != nil {
						if _, ok := p.(abort.Signal); !ok {
							panic(p)
						}
						fires = append(fires, i)
					}
				}()
				fp.Hit()
			}()
		}
		return fires
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("same seed, different fire counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different fire ordinals at %d: %d vs %d", i, a[i], b[i])
		}
	}
	if len(a) < 30 || len(a) > 90 {
		t.Fatalf("prob 0.3 over 200 hits fired %d times, want roughly 60", len(a))
	}
}

func TestDelayAndYield(t *testing.T) {
	fp := delayPoint
	defer fp.Disarm()
	fp.Arm(Spec{Action: Delay, Delay: 5 * time.Millisecond})
	start := time.Now()
	fp.Hit()
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("delay action slept %v, want >= 5ms", d)
	}
	fp.Arm(Spec{Action: Yield})
	fp.Hit() // must not panic or block
}

func TestApplySyntax(t *testing.T) {
	fp := applyPoint
	defer DisarmAll()
	if err := Apply("test.apply.point=panic@nth:2"); err != nil {
		t.Fatal(err)
	}
	if !fp.Armed() {
		t.Fatal("Apply did not arm a registered point")
	}
	fp.Hit() // hit 1: no fire
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("hit 2 did not fire")
			}
		}()
		fp.Hit()
	}()

	// Arming before registration (FAILPOINTS= consumed at process start).
	lateName := freshName("test.apply.late")
	if err := Apply(lateName + "=delay:2ms"); err != nil {
		t.Fatal(err)
	}
	late := New(lateName)
	if !late.Armed() {
		t.Fatal("pending env spec not applied at registration")
	}

	for _, bad := range []string{
		"noequals", "=panic", "x=frobnicate", "x=panic@nth:0",
		"x=panic@prob:1.5", "x=delay:bogus", "x=panic@wat:1",
	} {
		if err := Apply(bad); err == nil {
			t.Errorf("Apply(%q) succeeded, want error", bad)
		}
	}
}

func TestNamesAndLookup(t *testing.T) {
	fp := namesPoint
	found := false
	for _, n := range Names() {
		if n == fp.Name() {
			found = true
		}
	}
	if !found {
		t.Fatal("registered point missing from Names()")
	}
	if got, ok := Lookup("test.names.point"); !ok || got != fp {
		t.Fatal("Lookup did not return the registered point")
	}
	if _, ok := Lookup("test.names.missing"); ok {
		t.Fatal("Lookup found an unregistered point")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	name := freshName("test.dup.point")
	New(name)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate New did not panic")
		}
	}()
	New(name)
}
