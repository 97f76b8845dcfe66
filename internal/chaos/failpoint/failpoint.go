// Package failpoint is a registry of named fault-injection points threaded
// through every commit and validation path in the repository. A disarmed
// failpoint costs one atomic pointer load per hit — cheap enough to leave
// compiled into the hot paths permanently — and an armed one executes a
// configured fault action on a configured schedule.
//
// Failpoints exist to prove the robustness claims the runtimes make: that a
// panic after commit-time locks are taken still releases them, that a forced
// abort mid-validation is indistinguishable from a real conflict, that the
// serial gate reopens when its owner dies. The crash-recovery suite arms
// every registered point in turn and checks those invariants; see
// DESIGN.md's "Failure model" section.
//
// # Naming
//
// Names are dotted paths, <runtime>.<operation>.<position>:
//
//	otb.commit.post-lock    after OTB's commit locks are acquired
//	norec.validate.mid      halfway through NOrec's value-based validation
//	boosting.lock.partial   after some but not all abstract locks are held
//	rtc.server.drop         in the RTC server loop, before serving a request
//
// # Arming
//
// Programmatically:
//
//	defer failpoint.Arm("otb.commit.post-lock", failpoint.Spec{
//		Action: failpoint.Panic, Nth: 3,
//	})()
//
// or from the environment, consumed when the process starts (and applied to
// points registered later, too):
//
//	FAILPOINTS='otb.commit.post-lock=panic@nth:3;norec.validate.mid=abort@prob:0.01,seed:42'
//
// The cmd binaries also accept the same syntax via -failpoints.
//
// # Actions and triggers
//
// Actions: panic (a *failpoint.Panic value — recovered by the runtimes'
// rollback paths and re-raised to the caller), abort (a forced transactional
// abort via abort.Retry(Conflict), indistinguishable from a real conflict),
// delay (sleep Spec.Delay, widening race windows), yield (runtime.Gosched,
// the cheapest scheduling perturbation).
//
// Triggers compose with any action: Nth fires exactly once on the nth hit;
// Every fires on every k-th hit; Prob fires with the given probability,
// deterministically derived from Seed and the hit ordinal so a run is
// reproducible from its seed; default is every hit.
package failpoint

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/abort"
)

// Action is the fault a failpoint injects when it fires.
type Action int

const (
	// Panic panics with a *Panic value. Runtimes recover it on their
	// rollback paths (releasing locks and logs) and re-raise it to the
	// caller of Atomic/Run.
	Panic Action = iota
	// Abort forces a transactional abort (abort.Retry with Conflict), which
	// the retry loop handles exactly like a real validation failure.
	Abort
	// Delay sleeps for Spec.Delay before continuing, widening race windows.
	Delay
	// Yield calls runtime.Gosched, perturbing scheduling at the point.
	Yield
)

// String returns the action's FAILPOINTS-syntax name.
func (a Action) String() string {
	switch a {
	case Panic:
		return "panic"
	case Abort:
		return "abort"
	case Delay:
		return "delay"
	case Yield:
		return "yield"
	default:
		return "unknown"
	}
}

// PanicValue is the value an armed Panic-action failpoint panics with.
// Callers of Atomic/Run recover it to distinguish injected crashes from real
// bugs.
type PanicValue struct {
	// Name is the failpoint that fired.
	Name string
	// Hit is the 1-based hit ordinal at which it fired.
	Hit uint64
}

// Error lets a recovered *PanicValue print usefully.
func (p *PanicValue) Error() string {
	return fmt.Sprintf("failpoint %s fired (hit %d)", p.Name, p.Hit)
}

// Spec configures an armed failpoint: one action plus an optional trigger
// schedule. Zero trigger fields mean "fire on every hit".
type Spec struct {
	// Action is the fault to inject.
	Action Action
	// Delay is the sleep duration for the Delay action.
	Delay time.Duration
	// Nth, if nonzero, fires exactly once: on the nth hit (1-based).
	Nth uint64
	// Every, if nonzero, fires on hits n where n%Every == 0.
	Every uint64
	// Prob, if nonzero, fires each hit with this probability in (0,1],
	// decided deterministically from Seed and the hit ordinal.
	Prob float64
	// Seed seeds the per-hit probability decision; runs with equal seeds
	// fire on the same hit ordinals.
	Seed uint64
}

// armed is the immutable armed state swapped into FP.st.
type armed struct {
	spec Spec
	hits atomic.Uint64
}

// FP is one registered failpoint. The zero value is not usable; points are
// created by New (typically as package-level vars next to the code they
// instrument).
type FP struct {
	name string
	// st is nil while disarmed — the only state the hot path ever loads.
	st atomic.Pointer[armed]
}

// registry maps names to registered points; pendingEnv holds FAILPOINTS=
// specs whose points are not registered yet (package init order is
// unspecified, so env arming must tolerate any registration order).
// The maps are made in the declaration, so New works from any package-level
// variable initializer, this package's own included.
var registry = struct {
	mu         sync.Mutex
	points     map[string]*FP
	pendingEnv map[string]Spec
}{points: make(map[string]*FP), pendingEnv: make(map[string]Spec)}

func init() {
	if env := os.Getenv("FAILPOINTS"); env != "" {
		if err := Apply(env); err != nil {
			fmt.Fprintln(os.Stderr, "failpoint: ignoring invalid FAILPOINTS:", err)
		}
	}
}

// New registers a failpoint under name and returns it. Registering the same
// name twice panics: names are global identities the test suites enumerate.
// If a FAILPOINTS= spec (or an earlier Apply) named this point, it is armed
// immediately.
func New(name string) *FP {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.points[name]; dup {
		panic("failpoint: duplicate registration of " + name)
	}
	fp := &FP{name: name}
	registry.points[name] = fp
	if spec, ok := registry.pendingEnv[name]; ok {
		delete(registry.pendingEnv, name)
		fp.st.Store(&armed{spec: spec})
	}
	return fp
}

// Lookup returns the registered point with the given name, if any.
func Lookup(name string) (*FP, bool) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	fp, ok := registry.points[name]
	return fp, ok
}

// Names returns every registered failpoint name, sorted. The crash-recovery
// suite uses it to prove each point has a scenario.
func Names() []string {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	names := make([]string, 0, len(registry.points))
	for n := range registry.points {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Arm arms the named point with spec and returns a disarm function (use with
// defer in tests). Unknown names are remembered and applied if the point
// registers later, matching FAILPOINTS= semantics.
func Arm(name string, spec Spec) (disarm func()) {
	registry.mu.Lock()
	fp, ok := registry.points[name]
	if !ok {
		registry.pendingEnv[name] = spec
		registry.mu.Unlock()
		return func() { Disarm(name) }
	}
	registry.mu.Unlock()
	fp.Arm(spec)
	return fp.Disarm
}

// Disarm disarms the named point (and drops any pending spec for it).
func Disarm(name string) {
	registry.mu.Lock()
	fp, ok := registry.points[name]
	delete(registry.pendingEnv, name)
	registry.mu.Unlock()
	if ok {
		fp.Disarm()
	}
}

// DisarmAll disarms every registered point and clears pending specs.
// Crash-recovery tests call it between scenarios.
func DisarmAll() {
	registry.mu.Lock()
	points := make([]*FP, 0, len(registry.points))
	for _, fp := range registry.points {
		points = append(points, fp)
	}
	registry.pendingEnv = make(map[string]Spec)
	registry.mu.Unlock()
	for _, fp := range points {
		fp.Disarm()
	}
}

// Apply parses a FAILPOINTS-syntax string and arms each named point. The
// grammar, entries separated by ';':
//
//	name=action[@trigger[,trigger...]]
//	action  = panic | abort | delay:<duration> | yield
//	trigger = nth:<n> | every:<k> | prob:<p>[,seed:<s>]
//
// Example: "otb.commit.post-lock=panic@nth:3;norec.validate.mid=delay:1ms".
// Points not yet registered are armed when they register. It backs both the
// FAILPOINTS environment variable and the cmd binaries' -failpoints flag.
func Apply(s string) error {
	for _, entry := range strings.Split(s, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return fmt.Errorf("failpoint: bad entry %q (want name=action[@triggers])", entry)
		}
		spec, err := parseSpec(rest)
		if err != nil {
			return fmt.Errorf("failpoint: %s: %w", name, err)
		}
		Arm(strings.TrimSpace(name), spec)
	}
	return nil
}

func parseSpec(s string) (Spec, error) {
	var spec Spec
	actionStr, trigStr, hasTrig := strings.Cut(s, "@")
	actionStr = strings.TrimSpace(actionStr)
	switch {
	case actionStr == "panic":
		spec.Action = Panic
	case actionStr == "abort":
		spec.Action = Abort
	case actionStr == "yield":
		spec.Action = Yield
	case strings.HasPrefix(actionStr, "delay:"):
		d, err := time.ParseDuration(strings.TrimPrefix(actionStr, "delay:"))
		if err != nil {
			return spec, fmt.Errorf("bad delay %q: %w", actionStr, err)
		}
		spec.Action, spec.Delay = Delay, d
	case actionStr == "delay":
		spec.Action, spec.Delay = Delay, time.Millisecond
	default:
		return spec, fmt.Errorf("unknown action %q", actionStr)
	}
	if !hasTrig {
		return spec, nil
	}
	for _, t := range strings.Split(trigStr, ",") {
		t = strings.TrimSpace(t)
		key, val, ok := strings.Cut(t, ":")
		if !ok {
			return spec, fmt.Errorf("bad trigger %q (want key:value)", t)
		}
		switch key {
		case "nth":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil || n == 0 {
				return spec, fmt.Errorf("bad nth %q", val)
			}
			spec.Nth = n
		case "every":
			k, err := strconv.ParseUint(val, 10, 64)
			if err != nil || k == 0 {
				return spec, fmt.Errorf("bad every %q", val)
			}
			spec.Every = k
		case "prob":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p <= 0 || p > 1 {
				return spec, fmt.Errorf("bad prob %q (want (0,1])", val)
			}
			spec.Prob = p
		case "seed":
			s, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return spec, fmt.Errorf("bad seed %q", val)
			}
			spec.Seed = s
		default:
			return spec, fmt.Errorf("unknown trigger %q", key)
		}
	}
	return spec, nil
}

// Name returns the point's registered name.
func (fp *FP) Name() string { return fp.name }

// Arm arms the point with spec, resetting its hit counter.
func (fp *FP) Arm(spec Spec) { fp.st.Store(&armed{spec: spec}) }

// Disarm returns the point to its single-atomic-load fast path.
func (fp *FP) Disarm() { fp.st.Store(nil) }

// Armed reports whether the point is currently armed.
func (fp *FP) Armed() bool { return fp.st.Load() != nil }

// Hits reports how many times the point has been hit since it was last
// armed (0 while disarmed). The crash-recovery suite uses it to prove that
// faults recovered out of the caller's sight (server-side drops) fired.
func (fp *FP) Hits() uint64 {
	if st := fp.st.Load(); st != nil {
		return st.hits.Load()
	}
	return 0
}

// Hit is the instrumentation call sites make. Disarmed (the permanent
// production state) it is one atomic pointer load; armed, it counts the hit,
// evaluates the trigger schedule, and executes the action if due. Hit never
// returns normally when a Panic or Abort action fires.
func (fp *FP) Hit() {
	st := fp.st.Load()
	if st == nil {
		return
	}
	fp.fire(st)
}

// fire is kept out of Hit so the disarmed path stays inlinable.
func (fp *FP) fire(st *armed) {
	n := st.hits.Add(1)
	sp := &st.spec
	switch {
	case sp.Nth != 0:
		if n != sp.Nth {
			return
		}
	case sp.Every != 0:
		if n%sp.Every != 0 {
			return
		}
	case sp.Prob != 0:
		// Deterministic per-hit decision: hash (seed, ordinal) so equal
		// seeds reproduce the same firing pattern without shared PRNG state.
		if float64(splitmix64(sp.Seed^n)>>11)/float64(1<<53) >= sp.Prob {
			return
		}
	}
	switch sp.Action {
	case Panic:
		panic(&PanicValue{Name: fp.name, Hit: n})
	case Abort:
		abort.Retry(abort.Conflict)
	case Delay:
		time.Sleep(sp.Delay)
	case Yield:
		runtime.Gosched()
	}
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
