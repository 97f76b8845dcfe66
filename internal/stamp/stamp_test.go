package stamp_test

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/stamp"
	"repro/internal/stm"
	"repro/internal/stm/glock"
	"repro/internal/stm/norec"
)

func TestAppsComplete(t *testing.T) {
	apps := stamp.Apps()
	if len(apps) != 6 {
		t.Fatalf("got %d apps, want the paper's 6", len(apps))
	}
	names := map[string]bool{}
	for _, a := range apps {
		names[a.Name] = true
		if a.Cells <= 0 || a.Reads <= 0 {
			t.Errorf("%s: degenerate profile %+v", a.Name, a)
		}
	}
	for _, want := range []string{"genome", "intruder", "kmeans", "labyrinth", "ssca2", "vacation"} {
		if !names[want] {
			t.Errorf("missing app %s", want)
		}
	}
}

func TestAppByName(t *testing.T) {
	if _, ok := stamp.AppByName("genome"); !ok {
		t.Fatal("genome should resolve")
	}
	if _, ok := stamp.AppByName("nope"); ok {
		t.Fatal("unknown app should not resolve")
	}
}

func TestWorkloadRuns(t *testing.T) {
	alg := glock.New()
	for _, app := range stamp.Apps() {
		w := stamp.NewWorkload(app)
		rng := rand.New(rand.NewPCG(1, 1))
		var sink uint64
		for i := 0; i < 50; i++ {
			sink += w.RunTx(alg, rng)
		}
		_ = sink
	}
}

// TestCommitRatioOrdering checks that the profiles reproduce Table 5.1's
// headline ordering: ssca2's commit share dominates vacation's, and
// labyrinth's is the smallest.
//
// stm.Profile counts nanoseconds, not work, so one descheduling inside a
// 3000-transaction run can swing a ratio by more than the gap between two
// apps. Each ratio is therefore the median of five repetitions: a disturbed
// repetition is an outlier, and the median discards two of them.
func TestCommitRatioOrdering(t *testing.T) {
	once := func(app stamp.App) float64 {
		alg := norec.New()
		prof := &stm.Profile{}
		alg.SetProfile(prof)
		w := stamp.NewWorkload(app)
		rng := rand.New(rand.NewPCG(7, 7))
		var sink uint64
		for i := 0; i < 3000; i++ {
			sink += w.RunTx(alg, rng)
		}
		_ = sink
		snap := prof.Snapshot()
		if snap.TotalNS == 0 {
			return 0
		}
		return float64(snap.CommitNS) / float64(snap.TotalNS)
	}
	ratio := func(app stamp.App) float64 {
		var rs [5]float64
		for i := range rs {
			rs[i] = once(app)
		}
		slices.Sort(rs[:])
		return rs[len(rs)/2]
	}
	get := func(name string) stamp.App {
		a, ok := stamp.AppByName(name)
		if !ok {
			t.Fatalf("app %s missing", name)
		}
		return a
	}
	ssca2 := ratio(get("ssca2"))
	genome := ratio(get("genome"))
	vacation := ratio(get("vacation"))
	labyrinth := ratio(get("labyrinth"))
	if !(ssca2 > vacation) {
		t.Errorf("commit ratio ordering broken: ssca2 %.3f <= vacation %.3f", ssca2, vacation)
	}
	if !(ssca2 > labyrinth) {
		t.Errorf("commit ratio ordering broken: ssca2 %.3f <= labyrinth %.3f", ssca2, labyrinth)
	}
	if !(genome > labyrinth) {
		t.Errorf("commit ratio ordering broken: genome %.3f <= labyrinth %.3f", genome, labyrinth)
	}
}
