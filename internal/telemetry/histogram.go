package telemetry

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of power-of-two latency buckets. Bucket i counts
// durations d (in nanoseconds) with bits.Len64(d) == i, i.e. bucket 0 is
// exactly 0ns, bucket i (i>0) covers [2^(i-1), 2^i). 48 buckets reach
// 2^47 ns ≈ 39 hours, far beyond any transaction here; longer durations
// clamp into the last bucket.
const NumBuckets = 48

// counts is the bucket counts and running sum of a histogram: a meter
// shard's latency histogram, and the core of Histogram.
type counts struct {
	buckets [NumBuckets]atomic.Uint64
	sum     atomic.Int64 // total observed nanoseconds, for the mean
}

const countsSize = (NumBuckets + 1) * 8

func (c *counts) observe(ns int64) {
	c.buckets[bucketOf(ns)].Add(1)
	c.sum.Add(ns)
}

func (c *counts) reset() {
	for i := range c.buckets {
		c.buckets[i].Store(0)
	}
	c.sum.Store(0)
}

// addTo adds the counts and sum into s.
func (c *counts) addTo(s *HistogramSnapshot) {
	for i := range c.buckets {
		n := c.buckets[i].Load()
		s.Counts[i] += n
		s.Total += n
	}
	s.SumNS += c.sum.Load()
}

// Histogram is a lock-free power-of-two-bucket latency histogram. Observe
// is a single atomic add on the bucket plus one on the running sum; there
// is no lock anywhere, so recording goroutines never wait on readers.
type Histogram struct {
	counts
	// exemplars holds one recent traced observation per bucket (last
	// writer wins). The two words are stored independently — a torn pair
	// can mismatch duration and trace id by one observation, which is
	// acceptable for an exemplar.
	exemplars [NumBuckets]exemplarSlot
}

type exemplarSlot struct {
	ns    atomic.Int64
	trace atomic.Uint64
}

// Exemplar is one traced observation attached to a histogram bucket, in the
// OpenMetrics exemplar sense: a concrete request to go look at.
type Exemplar struct {
	NS      int64  // the observed duration
	TraceID uint64 // the wire trace id that produced it (0 = none)
}

// bucketOf returns the bucket index for a duration of ns nanoseconds.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns))
	if b >= NumBuckets {
		return NumBuckets - 1
	}
	return b
}

// BucketLow returns the inclusive lower bound of bucket i in nanoseconds.
func BucketLow(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// BucketHigh returns the exclusive upper bound of bucket i in nanoseconds.
func BucketHigh(i int) int64 {
	if i <= 0 {
		return 1
	}
	return 1 << i
}

// Observe records one duration of ns nanoseconds.
func (h *Histogram) Observe(ns int64) { h.observe(ns) }

// ObserveEx records one duration and, when traceID is nonzero, stamps it as
// the bucket's exemplar so the OpenMetrics exposition can point a slow
// bucket at a concrete trace.
func (h *Histogram) ObserveEx(ns int64, traceID uint64) {
	h.observe(ns)
	if traceID != 0 {
		b := bucketOf(ns)
		h.exemplars[b].ns.Store(ns)
		h.exemplars[b].trace.Store(traceID)
	}
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() {
	h.reset()
	for i := range h.exemplars {
		h.exemplars[i].ns.Store(0)
		h.exemplars[i].trace.Store(0)
	}
}

// Snapshot copies the bucket counts, sum and exemplars.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	h.addTo(&s)
	for i := range h.exemplars {
		s.Exemplars[i] = Exemplar{
			NS:      h.exemplars[i].ns.Load(),
			TraceID: h.exemplars[i].trace.Load(),
		}
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Counts    [NumBuckets]uint64
	Total     uint64
	SumNS     int64
	Exemplars [NumBuckets]Exemplar
}

// Mean returns the average observed duration (zero if empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Total == 0 {
		return 0
	}
	return time.Duration(s.SumNS / int64(s.Total))
}

// Quantile estimates the q-quantile (q in [0,1]) by locating the bucket
// holding the q-th observation and interpolating linearly within it,
// assuming observations spread uniformly across the bucket. A bucket spans
// [2^(i-1), 2^i), so the previous behaviour — returning the upper edge —
// overstated the quantile by up to 2×; interpolation keeps the estimate
// inside the bucket and exact at the bucket's last observation.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Total))
	if rank >= s.Total {
		rank = s.Total - 1
	}
	var seen uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if seen+c > rank {
			low, high := BucketLow(i), BucketHigh(i)
			pos := rank - seen // 0-based position within this bucket
			return time.Duration(float64(low) +
				float64(high-low)*float64(pos+1)/float64(c))
		}
		seen += c
	}
	return time.Duration(BucketHigh(NumBuckets - 1))
}

// String renders the non-empty buckets compactly, e.g. "[1µs,2µs):1234".
func (s HistogramSnapshot) String() string {
	if s.Total == 0 {
		return "empty"
	}
	out := ""
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("[%v,%v):%d",
			time.Duration(BucketLow(i)), time.Duration(BucketHigh(i)), c)
	}
	return out
}
