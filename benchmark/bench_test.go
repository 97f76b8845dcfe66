package main

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/txnet"
)

func mustSpecs(t *testing.T) []*Spec {
	t.Helper()
	specs, err := loadSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("%d workloads declared, want 4", len(specs))
	}
	return specs
}

// streamBytes is the first n transactions of one connection's stream,
// preload included, as bytes.
func streamBytes(spec *Spec, seed uint64, conn, n int) []byte {
	var b []byte
	put := func(ops []txnet.Op) {
		for _, op := range ops {
			b = append(b, byte(op.Code))
			b = binary.BigEndian.AppendUint32(b, op.Struct)
			b = binary.BigEndian.AppendUint64(b, uint64(op.Key))
			b = binary.BigEndian.AppendUint64(b, op.Val)
		}
	}
	put(preloadOps(spec, seed, conn))
	g := newGenerator(spec, seed, conn)
	var ops []txnet.Op
	for i := 0; i < n; i++ {
		ops, _ = g.next(ops)
		put(ops)
	}
	return b
}

func TestSameSeedSameStream(t *testing.T) {
	for _, spec := range mustSpecs(t) {
		for conn := 0; conn < spec.Conns; conn++ {
			a, b := streamBytes(spec, 7, conn, 2000), streamBytes(spec, 7, conn, 2000)
			if !slices.Equal(a, b) {
				t.Errorf("%s conn %d: same seed gave different streams", spec.Name, conn)
			}
			if slices.Equal(a, streamBytes(spec, 8, conn, 2000)) {
				t.Errorf("%s conn %d: seeds 7 and 8 gave the same stream", spec.Name, conn)
			}
		}
		if slices.Equal(streamBytes(spec, 7, 0, 2000), streamBytes(spec, 7, 1, 2000)) {
			t.Errorf("%s: connections 0 and 1 got the same stream", spec.Name)
		}
	}
}

func TestPointStreamsStayOnOwnKeys(t *testing.T) {
	for _, spec := range mustSpecs(t) {
		if spec.Shape != "point" {
			continue
		}
		for conn := 0; conn < spec.Conns; conn++ {
			load := preloadOps(spec, 3, conn)
			if int64(len(load)) != spec.Preload/int64(spec.Conns) {
				t.Errorf("%s conn %d preloads %d keys, want %d", spec.Name, conn, len(load), spec.Preload/int64(spec.Conns))
			}
			s := genStream(spec, 3, conn, 5000, false)
			for _, op := range append(load, s.ops...) {
				if op.Key%int64(spec.Conns) != int64(conn) || op.Key < 0 || op.Key >= spec.KeyRange {
					t.Fatalf("%s conn %d touches key %d", spec.Name, conn, op.Key)
				}
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []uint32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 100}, {0.9, 90}, {0.01, 10}, {1, 100}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := percentile([]uint32{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v", got)
	}
}

func TestMedianOfSlices(t *testing.T) {
	slicesIn := []float64{9, 1, 5, 3, 100} // one spoiled slice
	if got := median(slicesIn); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if slicesIn[0] != 9 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 2}); got != 3 {
		t.Errorf("median of two = %v, want 3", got)
	}
	if got := spread([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread = %v, want 0.2", got)
	}
}

func TestBudgetArithmetic(t *testing.T) {
	// The issue's prototype: 18.5 µs of wire + 27 µs of execute against a
	// measured 47 µs leaves 1.5 µs unexplained.
	if got := gapFrac(47, 18.5, 27); math.Abs(got-1.5/47) > 1e-12 {
		t.Errorf("gapFrac = %v", got)
	}
	if got := gapFrac(40, 30, 20); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("overshoot gapFrac = %v, want 0.25", got)
	}
	if got := gapFrac(0, 1); got != 0 {
		t.Errorf("gapFrac with nothing measured = %v", got)
	}
}

// The gate is only worth its cost if it fails when the store is wrong.
func TestGateCatchesWrongAnswers(t *testing.T) {
	specs := mustSpecs(t)
	var point, multi *Spec
	for _, s := range specs {
		if s.Name == "net-map-point" {
			point = s
		}
		if s.Shape == "multi" {
			multi = s
		}
	}
	put := []txnet.Op{{Code: txnet.OpPut, Struct: structMap, Key: 4, Val: 9}}
	get := []txnet.Op{{Code: txnet.OpGet, Struct: structMap, Key: 4}}
	m := newModel(point)
	if err := m.check(put, []txnet.OpResult{{OK: true}}); err != nil {
		t.Fatal(err)
	}
	if err := m.check(get, []txnet.OpResult{{Out: 9, OK: true}}); err != nil {
		t.Fatal(err)
	}
	if m.check(get, []txnet.OpResult{{Out: 8, OK: true}}) == nil {
		t.Error("a stale value passed")
	}
	if m.check(get, []txnet.OpResult{{}}) == nil {
		t.Error("a lost write passed")
	}
	if m.check(put, []txnet.OpResult{{OK: true}}) == nil {
		t.Error("a second creation of one key passed")
	}
	dump := []txnet.Op{{Code: txnet.OpPut, Struct: structMap, Key: 4, Val: 9}}
	if err := verifyDump(point, dump, nil, []*model{m}); err != nil {
		t.Fatal(err)
	}
	if verifyDump(point, nil, nil, []*model{m}) == nil {
		t.Error("a dump missing an acknowledged write passed")
	}
	if verifyDump(point, append(dump, txnet.Op{Code: txnet.OpPut, Struct: structMap, Key: 6, Val: 1}), nil, []*model{m}) == nil {
		t.Error("a dump with a key nobody wrote passed")
	}

	mm := newModel(multi)
	torn := []txnet.Op{{Code: txnet.OpContains, Struct: structSet, Key: 1}, {Code: txnet.OpGet, Struct: structMap, Key: 1}}
	if mm.check(torn, []txnet.OpResult{{OK: true}, {OK: false}}) == nil {
		t.Error("a key in the set but not the map passed")
	}
	if mm.check(torn, []txnet.OpResult{{OK: true}, {Out: 5, OK: true}}) == nil {
		t.Error("a wrong map value passed")
	}
	pre := preloadOps(multi, 1, 0)
	if err := verifyDump(multi, pre, pre, []*model{mm}); err != nil {
		t.Fatal(err)
	}
	if verifyDump(multi, pre[:len(pre)-1], pre, []*model{mm}) == nil {
		t.Error("a lost queue entry passed")
	}
}

// benchmarkFile is the contract the driver reads; the program must agree
// with it name for name.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func sameNames(t *testing.T, what string, got metrics, want map[string]string) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range got {
		if seen[m.name] {
			t.Errorf("%s: %s printed twice", what, m.name)
		}
		seen[m.name] = true
		if unit, ok := want[m.name]; !ok {
			t.Errorf("%s: prints %s, which BENCHMARK.json does not declare", what, m.name)
		} else if unit != m.unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, m.name, m.unit, unit)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s: BENCHMARK.json declares %s, which is not printed", what, name)
		}
	}
}

// TestSmoke runs the whole benchmark in its -quick shape: all four
// workloads end to end and layer by layer, the ladder, the full correctness
// gate, and the agreement with BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second")
	}
	start := time.Now()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	e2eWant, layerWant := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		e2eWant[m.Name] = m.Unit
		if bounds[m.Name] != m.Bound {
			t.Errorf("%s: bound %v in BENCHMARK.json, %v in the program", m.Name, m.Bound, bounds[m.Name])
		}
		if (m.Better == "lower") != lowerIsBetter(m.Name) {
			t.Errorf("%s: BENCHMARK.json says better=%s", m.Name, m.Better)
		}
	}
	for _, m := range bf.PerLayer {
		layerWant[m.Name] = m.Unit
	}

	telemetry.Enable()
	specs := mustSpecs(t)
	c := config{seed: 1, seconds: bf.RunSeconds, quick: true, outDir: t.TempDir()}
	ladder, err := runLadder(specs, c.seed, c.outDir, true, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		if i >= len(bf.Workloads) || !slices.ContainsFunc(bf.Workloads, func(w struct{ Name string }) bool { return w.Name == spec.Name }) {
			t.Errorf("BENCHMARK.json does not list workload %s", spec.Name)
		}
		e := endToEnd(spec, c)
		if e.err != nil {
			t.Errorf("%s end to end: %v", spec.Name, e.err)
		}
		sameNames(t, spec.Name+" end to end", e.metrics, e2eWant)
		for _, m := range e.metrics {
			if !(m.value > 0) {
				t.Errorf("%s: %s = %v, want > 0", spec.Name, m.name, m.value)
			}
		}
		l := layers(spec, c, ladder)
		if l.err != nil {
			t.Errorf("%s layers: %v", spec.Name, l.err)
		}
		sameNames(t, spec.Name+" layers", append(slices.Clone(ladder), l.metrics...), layerWant)
		if info, err := os.Stat(c.outDir + "/" + spec.Name + ".trace.json"); err != nil || info.Size() == 0 {
			t.Errorf("%s: no trace file written: %v", spec.Name, err)
		}
		if spec.Transport == "loopback" {
			if got := l.metrics.get("stage.sum_over_total"); got < 0.9 || got > 1.01 {
				t.Errorf("%s: stages sum to %.3f of the round trip", spec.Name, got)
			}
		}
	}
	if entries, _ := os.ReadDir(c.outDir); len(entries) != len(specs) {
		t.Errorf("%d entries left in the output directory, want the %d trace files only", len(entries), len(specs))
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("smoke test took %v, want under 15s", d)
	}
}
