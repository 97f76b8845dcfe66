package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/abort"
)

// TestConcurrentIncrements checks that counts recorded from many goroutines
// through independent Local handles sum exactly (run under -race in CI).
func TestConcurrentIncrements(t *testing.T) {
	reg := NewRegistry()
	reg.SetEnabled(true)
	m := reg.Meter("alg")

	const goroutines = 8
	const perG = 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := m.Local()
			for i := 0; i < perG; i++ {
				l.Commit(0)
				l.Abort(abort.Conflict)
				if i%2 == 0 {
					l.Abort(abort.LockBusy)
				}
				if i%4 == 0 {
					l.Fallback()
				}
			}
		}()
	}
	wg.Wait()

	s := m.Snapshot()
	if s.Commits != goroutines*perG {
		t.Errorf("commits = %d, want %d", s.Commits, goroutines*perG)
	}
	if got := s.Aborts[abort.Conflict]; got != goroutines*perG {
		t.Errorf("conflict aborts = %d, want %d", got, goroutines*perG)
	}
	if got := s.Aborts[abort.LockBusy]; got != goroutines*perG/2 {
		t.Errorf("lock-busy aborts = %d, want %d", got, goroutines*perG/2)
	}
	if s.Fallbacks != goroutines*perG/4 {
		t.Errorf("fallbacks = %d, want %d", s.Fallbacks, goroutines*perG/4)
	}
	if s.Retries != s.TotalAborts() {
		t.Errorf("retries = %d, want = total aborts %d", s.Retries, s.TotalAborts())
	}
	wantRate := float64(s.TotalAborts()) / float64(s.TotalAborts()+s.Commits)
	if s.AbortRate() != wantRate {
		t.Errorf("abort rate = %v, want %v", s.AbortRate(), wantRate)
	}
}

// TestSnapshotVsReset runs recorders, snapshotters and resetters
// concurrently: every snapshot must be bounded by what was actually
// recorded, and recording must never be lost outside a reset window.
func TestSnapshotVsReset(t *testing.T) {
	reg := NewRegistry()
	reg.SetEnabled(true)
	m := reg.Meter("alg")

	const perG = 5_000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Recorders.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := m.Local()
			for i := 0; i < perG; i++ {
				l.Commit(0)
			}
		}()
	}
	// Concurrent snapshots: totals must never exceed the maximum possible.
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s := m.Snapshot(); s.Commits > 4*perG {
				t.Errorf("snapshot over-counts: %d > %d", s.Commits, 4*perG)
				return
			}
		}
	}()
	// A concurrent reset must not corrupt anything (it zeroes shards one by
	// one; later snapshots stay bounded).
	m.Reset()
	wg.Wait()
	close(stop)
	<-snapDone

	// After quiescence: reset then record a known count; it must be exact.
	m.Reset()
	l := m.Local()
	for i := 0; i < 123; i++ {
		l.Commit(0)
	}
	if s := m.Snapshot(); s.Commits != 123 {
		t.Errorf("post-reset commits = %d, want 123", s.Commits)
	}
}

// TestHistogramBuckets pins the power-of-two bucket boundaries.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		ns     int64
		bucket int
	}{
		{0, 0}, {-5, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4},
		{1023, 10}, {1024, 11},
		{1 << 46, 47},
		{1 << 47, NumBuckets - 1}, // clamped
		{1<<62 + 1, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.bucket)
		}
	}
	// Bucket bounds are consistent with bucketOf: low is inside, high is in
	// the next bucket.
	for i := 1; i < NumBuckets-1; i++ {
		if got := bucketOf(BucketLow(i)); got != i {
			t.Errorf("bucketOf(BucketLow(%d)) = %d", i, got)
		}
		if got := bucketOf(BucketHigh(i)); got != i+1 {
			t.Errorf("bucketOf(BucketHigh(%d)) = %d, want %d", i, got, i+1)
		}
	}

	var h Histogram
	h.Observe(3)
	h.Observe(3)
	h.Observe(1000)
	s := h.Snapshot()
	if s.Total != 3 || s.Counts[2] != 2 || s.Counts[10] != 1 {
		t.Errorf("unexpected histogram: total=%d counts[2]=%d counts[10]=%d",
			s.Total, s.Counts[2], s.Counts[10])
	}
	if s.Mean() != time.Duration((3+3+1000)/3) {
		t.Errorf("mean = %v", s.Mean())
	}
	if q := s.Quantile(0.5); q != time.Duration(4) {
		t.Errorf("p50 = %v, want 4ns (upper edge of [2,4))", q)
	}
	if q := s.Quantile(1.0); q != time.Duration(1024) {
		t.Errorf("p100 = %v, want 1.024µs", q)
	}
	h.Reset()
	if s := h.Snapshot(); s.Total != 0 || s.SumNS != 0 {
		t.Errorf("reset left total=%d sum=%d", s.Total, s.SumNS)
	}
}

// TestShardedLatencySums: two goroutines record latencies through Locals
// on different shards while a third snapshots; the final snapshot's
// histograms are the sum of both shards' (run it under -race).
func TestShardedLatencySums(t *testing.T) {
	reg := NewRegistry()
	reg.SetEnabled(true)
	m := reg.Meter("alg")
	const perG = 5000
	stop := make(chan struct{})
	snapped := make(chan struct{})
	go func() {
		defer close(snapped)
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
				// Snapshots are not atomic, but each sum only grows.
				if n := m.Snapshot().TxLatency.Total; n < last {
					t.Errorf("tx latencies fell from %d to %d", last, n)
				} else {
					last = n
				}
			}
		}
	}()
	var wg sync.WaitGroup
	locals := [2]*Local{m.Local(), m.Local()}
	if locals[0].s == locals[1].s {
		t.Fatal("two Locals share a shard")
	}
	for _, l := range locals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s := l.Start()
				end := l.CommitPhase(s)
				l.CommitAt(s, end)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-snapped
	s := m.Snapshot()
	if s.Commits != 2*perG || s.TxLatency.Total != 2*perG || s.CommitLatency.Total != 2*perG {
		t.Fatalf("commits %d, tx latencies %d, commit-phase latencies %d; want %d each",
			s.Commits, s.TxLatency.Total, s.CommitLatency.Total, 2*perG)
	}
	var perShard uint64
	for _, l := range locals {
		var h HistogramSnapshot
		l.s.txLat.addTo(&h)
		perShard += h.Total
	}
	if perShard != s.TxLatency.Total {
		t.Errorf("shards hold %d tx latencies, snapshot sums %d", perShard, s.TxLatency.Total)
	}
	m.Reset()
	if s := m.Snapshot(); s.TxLatency.Total != 0 || s.CommitLatency.SumNS != 0 {
		t.Errorf("reset left %d tx latencies, commit-phase sum %d", s.TxLatency.Total, s.CommitLatency.SumNS)
	}
}

// TestDisabledNoAlloc checks the no-op paths allocate nothing: the default
// disabled registry, and nil meters/locals.
func TestDisabledNoAlloc(t *testing.T) {
	reg := NewRegistry() // disabled
	l := reg.Meter("alg").Local()
	var nilLocal *Local
	var nilMeter *Meter

	paths := map[string]func(){
		"disabled": func() {
			s := l.Start()
			l.Abort(abort.Conflict)
			l.CommitPhase(s)
			l.Commit(s)
			l.Fallback()
		},
		"nil-local": func() {
			s := nilLocal.Start()
			nilLocal.Abort(abort.Conflict)
			nilLocal.Commit(s)
		},
		"nil-meter-snapshot": func() {
			_ = nilMeter.Snapshot()
			nilMeter.Reset()
		},
	}
	for name, f := range paths {
		if n := testing.AllocsPerRun(1000, f); n != 0 {
			t.Errorf("%s path allocates %v per op, want 0", name, n)
		}
	}
	if s := l.Start(); s != 0 {
		t.Errorf("disabled Start = %d, want 0", s)
	}
}

// TestEnableDisableMidstream checks a Local created while disabled records
// once the registry is enabled, and stops when disabled again.
func TestEnableDisableMidstream(t *testing.T) {
	reg := NewRegistry()
	m := reg.Meter("alg")
	l := m.Local()
	l.Commit(0)
	if s := m.Snapshot(); s.Commits != 0 {
		t.Fatalf("disabled commit recorded: %d", s.Commits)
	}
	reg.SetEnabled(true)
	l.Commit(0)
	start := l.Start()
	if start == 0 {
		t.Fatal("enabled Start returned 0")
	}
	l.Commit(start)
	reg.SetEnabled(false)
	l.Commit(0)
	s := m.Snapshot()
	if s.Commits != 2 {
		t.Errorf("commits = %d, want 2", s.Commits)
	}
	if s.TxLatency.Total != 1 {
		t.Errorf("latency observations = %d, want 1", s.TxLatency.Total)
	}
}

// TestRegistry covers meter identity, snapshot ordering, Vars and the
// rendered table.
func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	reg.SetEnabled(true)
	if reg.Meter("b") != reg.Meter("b") {
		t.Error("same name returned distinct meters")
	}
	reg.Meter("b").Local().Commit(0)
	reg.Meter("a").Local().Abort(abort.Invalidated)

	snaps := reg.Snapshot()
	if len(snaps) != 2 || snaps[0].Name != "a" || snaps[1].Name != "b" {
		t.Fatalf("snapshot order: %+v", snaps)
	}

	vars := reg.Vars()
	if vars["enabled"] != true {
		t.Error("vars missing enabled=true")
	}
	bv, ok := vars["b"].(map[string]any)
	if !ok || bv["commits"] != uint64(1) {
		t.Errorf("vars[b] = %#v", vars["b"])
	}
	av, ok := vars["a"].(map[string]any)
	if !ok {
		t.Fatalf("vars[a] = %#v", vars["a"])
	}
	if ab, ok := av["aborts"].(map[string]uint64); !ok || ab["invalidated"] != 1 {
		t.Errorf("vars[a][aborts] = %#v", av["aborts"])
	}

	var sb strings.Builder
	WriteTable(&sb, snaps)
	out := sb.String()
	for _, want := range []string{"algorithm", "invalidated", "a", "b"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}

	reg.Reset()
	for _, s := range reg.Snapshot() {
		if s.Commits != 0 || s.TotalAborts() != 0 {
			t.Errorf("reset left counts in %s: %+v", s.Name, s)
		}
	}
}

// TestOutOfRangeReason checks a corrupt reason folds into conflict instead
// of indexing out of bounds.
func TestOutOfRangeReason(t *testing.T) {
	reg := NewRegistry()
	reg.SetEnabled(true)
	m := reg.Meter("alg")
	l := m.Local()
	l.Abort(abort.Reason(99))
	l.Abort(abort.Reason(-1))
	if s := m.Snapshot(); s.Aborts[abort.Conflict] != 2 {
		t.Errorf("out-of-range reasons not folded: %+v", s.Aborts)
	}
}
