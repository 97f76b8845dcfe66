package main

import (
	"math"
	"slices"
)

// percentile returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q·n samples at or
// below it. It is exact — no interpolation — so the value is always one
// that was measured.
func percentile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)])
}

// median returns the middle of vs (mean of the two middle values for an
// even count) without reordering the caller's slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// best returns the best of a window's per-slice values: the largest if
// higher is better, else the smallest. Interference from the host only ever
// slows a slice down, and on this shared machine it comes in stretches of
// ten to twenty-five seconds during which everything takes half as long
// again, so the fastest slice is the closest a run gets to what the code
// does undisturbed (ten runs of each workload: the best slice's p50 spread
// 0.4-2.7 % from run to run, the median slice's 1.0-4.9 %). A slice still
// holds tens of thousands of transactions and, for the durable workload, a
// snapshot, so it cannot be fast by luck.
func best(vs []float64, higher bool) float64 {
	if len(vs) == 0 {
		return 0
	}
	if higher {
		return slices.Max(vs)
	}
	return slices.Min(vs)
}

// spread is (max − min) / median: how far the slices of one window
// disagree.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	return (slices.Max(vs) - slices.Min(vs)) / m
}

// gapFrac is the layer-budget check: how far the sum of independently
// measured layer costs is from the end-to-end figure, as a share of the
// latter.
func gapFrac(measured float64, layers ...float64) float64 {
	if measured == 0 {
		return 0
	}
	var sum float64
	for _, l := range layers {
		sum += l
	}
	return math.Abs(measured-sum) / measured
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
