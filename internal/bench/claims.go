package bench

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// Claim is one relative result the paper states about a figure: in panel
// Panel, series Num's Y at Threads is at least Floor times series Den's.
// Floor is the factor the paper states, or 1 where it only says "better".
// Ratios within one run transfer across hosts where absolute throughput
// does not.
type Claim struct {
	Panel    string
	Num, Den string
	Threads  int
	Floor    float64
}

// Ratio returns Num/Den measured in f: the median of the per-round ratios
// (Rounds), so one disturbed round cannot decide a claim. A panel, series
// or thread count that f lacks is an error, never a pass, so renaming a
// series cannot switch a claim off.
func (c Claim) Ratio(f Figure) (float64, error) {
	rs, err := c.Rounds(f)
	if err != nil {
		return 0, err
	}
	slices.Sort(rs)
	return (rs[(len(rs)-1)/2] + rs[len(rs)/2]) / 2, nil
}

// Rounds returns Num/Den for each round of points measured in interleaved
// rounds, round i of Num over round i of Den; for points measured once, the
// one ratio of their values. Ratios within one round transfer across hosts
// where absolute throughput does not.
func (c Claim) Rounds(f Figure) ([]float64, error) {
	for _, sp := range f.SubPlots {
		if sp.Name != c.Panel {
			continue
		}
		num, err := c.point(f.ID, sp, c.Num)
		if err != nil {
			return nil, err
		}
		den, err := c.point(f.ID, sp, c.Den)
		if err != nil {
			return nil, err
		}
		if len(num) != len(den) {
			return nil, fmt.Errorf("%s %q: %s has %d rounds, %s %d", f.ID, c.Panel, c.Num, len(num), c.Den, len(den))
		}
		rs := make([]float64, len(num))
		for i := range num {
			rs[i] = num[i] / den[i]
			if math.IsNaN(rs[i]) || math.IsInf(rs[i], 0) {
				return nil, fmt.Errorf("%s %q: %s/%s = %g/%g is not a finite ratio", f.ID, c.Panel, c.Num, c.Den, num[i], den[i])
			}
		}
		return rs, nil
	}
	return nil, fmt.Errorf("%s has no panel %q", f.ID, c.Panel)
}

// point returns the rounds of series' point at the claim's thread count
// (its one value if it was measured once).
func (c Claim) point(id string, sp SubPlot, series string) ([]float64, error) {
	for _, s := range sp.Series {
		if s.Name != series {
			continue
		}
		for _, p := range s.Points {
			if p.X == c.Threads {
				if len(p.Rounds) == 0 {
					return []float64{p.Y}, nil
				}
				return p.Rounds, nil
			}
		}
		return nil, fmt.Errorf("%s %q: series %s has no point at %d threads", id, c.Panel, series, c.Threads)
	}
	return nil, fmt.Errorf("%s %q has no series %s", id, c.Panel, series)
}

// CheckClaims writes one row per claim about f (measured ratio, floor, the
// spread of the per-round ratios, verdict) and reports whether every claim
// reached its floor. A claim that cannot be evaluated fails.
func CheckClaims(w io.Writer, f Figure, claims []Claim) bool {
	held := true
	for _, c := range claims {
		r, err := c.Ratio(f)
		ratio, spread, verdict := fmt.Sprintf("%.2f", r), "", "ok"
		switch {
		case err != nil:
			ratio, verdict = "-", fmt.Sprintf("FAIL (%v)", err)
		case r < c.Floor:
			verdict = "FAIL"
		}
		if rs, err := c.Rounds(f); err == nil && len(rs) > 1 {
			spread = fmt.Sprintf("  (%d rounds: %.2f–%.2f)", len(rs), slices.Min(rs), slices.Max(rs))
		}
		held = held && verdict == "ok"
		name := fmt.Sprintf("%s %s: %s / %s @ %dt", f.ID, c.Panel, c.Num, c.Den, c.Threads)
		fmt.Fprintf(w, "%-66s %7s %6.2f  %s%s\n", name, ratio, c.Floor, verdict, spread)
	}
	return held
}
