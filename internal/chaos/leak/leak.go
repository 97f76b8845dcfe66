// Package leak is a hand-rolled goroutine-leak checker for stress tests: it
// snapshots the goroutines alive when a test starts and fails the test if
// new ones are still alive when it ends. Server-based runtimes (RTC,
// RInval) and the telemetry publisher run long-lived goroutines by design;
// the checker filters those by stack-trace substring rather than requiring
// every test to stop them.
//
// Usage, first line of a stress test:
//
//	defer leak.Check(t)()
//
// or, when cleanup must run after other t.Cleanup handlers:
//
//	leak.CheckCleanup(t)
package leak

import (
	"runtime"
	"strings"
	"time"
)

// TB is the subset of testing.TB the checker needs (so the package stays
// importable from helpers without a testing dependency in signatures).
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Cleanup(func())
}

// ignoredStacks are substrings of goroutine stacks that never count as
// leaks: the runtime's own workers, testing machinery, and this package.
var ignoredStacks = []string{
	"testing.(*T).Run",          // test runner goroutines
	"testing.tRunner",           // sibling parallel tests
	"testing.runTests",          // main test goroutine
	"testing.(*M).",             // test main
	"runtime.goexit0",           // exiting goroutines caught mid-teardown
	"created by runtime.gc",     // GC workers
	"runtime.MHeap_Scavenger",   // scavenger (old runtimes)
	"runtime/trace.Start",       // tracer
	"signal.signal_recv",        // signal handler
	"repro/internal/telemetry.", // the -telemetry publisher goroutine
	"runtime.ReadTrace",         // tracer reader
	"runtime.ensureSigM",        // signal mask goroutine
	"os/signal.loop",            // signal loop
	"runtime.forcegchelper",     // forced-GC helper
	"runtime.bgsweep",           // background sweeper
	"runtime.bgscavenge",        // background scavenger
	"runtime.runfinq",           // finalizer goroutine
	"runtime.gopark",            // bare header line fallback is never alone
}

// interesting reports whether one goroutine stack counts as a potential
// leak.
func interesting(stack string) bool {
	if stack == "" {
		return false
	}
	for _, ig := range ignoredStacks {
		if strings.Contains(stack, ig) {
			return false
		}
	}
	return true
}

// snapshot returns the set of live interesting goroutine stacks, keyed by
// the goroutine id from the header line ("goroutine 12" of "goroutine 12
// [running]:"). The wait state is left out of the key: a goroutine started
// just before the first snapshot is runnable there and parked in the next.
func snapshot() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	stacks := make(map[string]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !interesting(g) {
			continue
		}
		id, _, _ := strings.Cut(g, " [")
		stacks[id] = g
	}
	return stacks
}

// Check snapshots live goroutines and returns a function that fails t if
// goroutines not alive at the snapshot are still alive when it runs. New
// goroutines get a grace period to exit on their own (stress-test workers
// racing past their done-channel check are not leaks).
func Check(t TB) func() {
	before := snapshot()
	return func() {
		t.Helper()
		leaked := wait(before)
		for _, stack := range leaked {
			t.Errorf("leaked goroutine:\n%s", stack)
		}
	}
}

// CheckCleanup registers Check via t.Cleanup, so it runs after the test and
// its earlier cleanups (structure Stop calls registered later run first —
// t.Cleanup is LIFO — so register leak checking before creating servers).
func CheckCleanup(t TB) {
	t.Cleanup(Check(t))
}

// wait polls for new goroutines to exit, returning the stacks of those
// still alive after the grace period.
func wait(before map[string]string) []string {
	deadline := time.Now().Add(2 * time.Second)
	for {
		var leaked []string
		for id, stack := range snapshot() {
			if _, ok := before[id]; !ok {
				leaked = append(leaked, stack)
			}
		}
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}
