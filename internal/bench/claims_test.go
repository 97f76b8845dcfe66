package bench_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
)

func claimFigure() bench.Figure {
	return bench.Figure{ID: "figX", XLabel: "threads", SubPlots: []bench.SubPlot{{
		Name: "mix",
		Series: []bench.Series{
			{Name: "A", Points: []bench.Point{{X: 1, Y: 10}, {X: 2, Y: 30}}},
			{Name: "B", Points: []bench.Point{{X: 1, Y: 10}, {X: 2, Y: 15}}},
		},
	}}}
}

func TestCheckClaims(t *testing.T) {
	f := claimFigure()
	cases := []struct {
		name  string
		claim bench.Claim
		held  bool
		row   string // expected in the printed row
	}{
		{"at floor", bench.Claim{Panel: "mix", Num: "A", Den: "B", Threads: 2, Floor: 2}, true, "2.00  ok"},
		{"above floor", bench.Claim{Panel: "mix", Num: "A", Den: "B", Threads: 1, Floor: 0.5}, true, "1.00   0.50  ok"},
		{"below floor", bench.Claim{Panel: "mix", Num: "B", Den: "A", Threads: 2, Floor: 1}, false, "0.50   1.00  FAIL"},
		{"missing panel", bench.Claim{Panel: "other", Num: "A", Den: "B", Threads: 2, Floor: 1}, false, `no panel "other"`},
		{"missing numerator", bench.Claim{Panel: "mix", Num: "C", Den: "B", Threads: 2, Floor: 1}, false, "no series C"},
		{"missing denominator", bench.Claim{Panel: "mix", Num: "A", Den: "C", Threads: 2, Floor: 1}, false, "no series C"},
		{"missing thread count", bench.Claim{Panel: "mix", Num: "A", Den: "B", Threads: 4, Floor: 1}, false, "no point at 4 threads"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			if held := bench.CheckClaims(&sb, f, []bench.Claim{tc.claim}); held != tc.held {
				t.Errorf("CheckClaims = %v, want %v:\n%s", held, tc.held, sb.String())
			}
			if !strings.Contains(sb.String(), tc.row) {
				t.Errorf("row %q does not contain %q", sb.String(), tc.row)
			}
		})
	}
}

// TestClaimJudgesMedianRound: a claim over points measured in interleaved
// rounds is judged on the median of the per-round ratios, so one disturbed
// round cannot fail it, and its row prints their spread.
func TestClaimJudgesMedianRound(t *testing.T) {
	f := claimFigure()
	a, b := &f.SubPlots[0].Series[0].Points[1], &f.SubPlots[0].Series[1].Points[1]
	a.Rounds = []float64{30, 30, 30}
	b.Rounds = []float64{15, 60, 15}
	c := bench.Claim{Panel: "mix", Num: "A", Den: "B", Threads: 2, Floor: 2}
	var sb strings.Builder
	if !bench.CheckClaims(&sb, f, []bench.Claim{c}) {
		t.Errorf("claim failed on one disturbed round of three:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "2.00  ok  (3 rounds: 0.50–2.00)") {
		t.Errorf("row %q does not print the median 2.00 and the spread 0.50–2.00", sb.String())
	}
	b.Rounds = []float64{15}
	if _, err := c.Ratio(f); err == nil {
		t.Error("series with 3 and 1 rounds gave a ratio, want an error")
	}
}

func TestClaimZeroDenominatorIsAnError(t *testing.T) {
	f := claimFigure()
	f.SubPlots[0].Series[1].Points[1].Y = 0
	if r, err := (bench.Claim{Panel: "mix", Num: "A", Den: "B", Threads: 2, Floor: 1}).Ratio(f); err == nil {
		t.Fatalf("ratio over a zero denominator = %g, want an error", r)
	}
}

// TestClaimsResolve generates every figure that carries claims and checks
// that each claim names a panel, two series and a thread count the figure
// really has. It does not check the ratios: millisecond windows are too
// short for that, and the paper-shape gate measures them.
func TestClaimsResolve(t *testing.T) {
	cfg := bench.Config{Threads: []int{2}, Warmup: 2 * time.Millisecond, Measure: 20 * time.Millisecond}
	n := 0
	for _, e := range bench.Experiments() {
		if len(e.Claims) == 0 {
			continue
		}
		f := e.Gen(cfg)
		for _, c := range e.Claims {
			n++
			if r, err := c.Ratio(f); err != nil || math.IsNaN(r) || math.IsInf(r, 0) {
				t.Errorf("%s %s: ratio %g, err %v; want a finite ratio", e.ID, c.Panel, r, err)
			}
		}
	}
	if n == 0 {
		t.Fatal("no experiment carries a claim")
	}
}
