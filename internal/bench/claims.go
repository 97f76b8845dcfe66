package bench

import (
	"fmt"
	"io"
	"math"
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

// Ratio returns Num/Den measured in f. A panel, series or thread count that
// f lacks is an error, never a pass, so renaming a series cannot switch a
// claim off.
func (c Claim) Ratio(f Figure) (float64, error) {
	for _, sp := range f.SubPlots {
		if sp.Name != c.Panel {
			continue
		}
		num, err := c.point(f.ID, sp, c.Num)
		if err != nil {
			return 0, err
		}
		den, err := c.point(f.ID, sp, c.Den)
		if err != nil {
			return 0, err
		}
		r := num / den
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return 0, fmt.Errorf("%s %q: %s/%s = %g/%g is not a finite ratio", f.ID, c.Panel, c.Num, c.Den, num, den)
		}
		return r, nil
	}
	return 0, fmt.Errorf("%s has no panel %q", f.ID, c.Panel)
}

func (c Claim) point(id string, sp SubPlot, series string) (float64, error) {
	for _, s := range sp.Series {
		if s.Name != series {
			continue
		}
		for _, p := range s.Points {
			if p.X == c.Threads {
				return p.Y, nil
			}
		}
		return 0, fmt.Errorf("%s %q: series %s has no point at %d threads", id, c.Panel, series, c.Threads)
	}
	return 0, fmt.Errorf("%s %q has no series %s", id, c.Panel, series)
}

// CheckClaims writes one row per claim about f (measured ratio, floor,
// verdict) and reports whether every claim reached its floor. A claim that
// cannot be evaluated fails.
func CheckClaims(w io.Writer, f Figure, claims []Claim) bool {
	held := true
	for _, c := range claims {
		r, err := c.Ratio(f)
		ratio, verdict := fmt.Sprintf("%.2f", r), "ok"
		switch {
		case err != nil:
			ratio, verdict = "-", fmt.Sprintf("FAIL (%v)", err)
		case r < c.Floor:
			verdict = "FAIL"
		}
		held = held && verdict == "ok"
		name := fmt.Sprintf("%s %s: %s / %s @ %dt", f.ID, c.Panel, c.Num, c.Den, c.Threads)
		fmt.Fprintf(w, "%-66s %7s %6.2f  %s\n", name, ratio, c.Floor, verdict)
	}
	return held
}
