// Package perf holds the fgstpperf benchmark: the three workloads, run
// as black boxes through the simulator's commands and HTTP, the golden
// output digests they are checked against, the statistics and spans the
// timed and traced runs report, and the metric set BENCHMARK.json
// declares. It uses only the standard library and imports nothing from
// the simulator, so a change to the simulator's internal APIs cannot
// break the timed path.
package perf

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer, the percentile is decided by a handful of outliers and is
// not reported at all.
const minBeyond = 10

// Percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// is an error unless at least minBeyond samples lie above the rank, so
// a p90 needs 100 samples and a p50 needs 20.
func Percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	s := sortedCopy(xs)
	return s[rank-1], nil
}

// Median is the middle value of xs (the mean of the two middle values
// for an even count); 0 for no samples. Unlike Percentile it applies no
// sample-count rule: it summarises repetitions, not latency tails.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so spreads printed here match the ones the
// benchmark's acceptance rule is stated in. It needs two samples.
func Quartiles(xs []float64) (q1, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", n)
	}
	s := sortedCopy(xs)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3), nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Interval is a half-open span of time [Start, End).
type Interval struct{ Start, End time.Duration }

// UnionLen is the total length covered by ivs, counting overlapping
// parts once: the time at least one of them was running.
func UnionLen(ivs []Interval) time.Duration {
	s := append([]Interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total time.Duration
	var cur Interval
	open := false
	for _, iv := range s {
		if iv.End <= iv.Start {
			continue
		}
		if open && iv.Start <= cur.End {
			if iv.End > cur.End {
				cur.End = iv.End
			}
			continue
		}
		if open {
			total += cur.End - cur.Start
		}
		cur, open = iv, true
	}
	if open {
		total += cur.End - cur.Start
	}
	return total
}

// SelfTime is parent's duration minus the part of it its children
// cover. Children may overlap one another (they run on parallel
// workers) and are clipped to the parent.
func SelfTime(parent Interval, children []Interval) time.Duration {
	clipped := make([]Interval, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		clipped = append(clipped, c)
	}
	return parent.End - parent.Start - UnionLen(clipped)
}
