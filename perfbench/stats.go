package main

import (
	"math"
	"sort"
)

// tailPercentiles is the ladder the tail rule picks from, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a tail percentile.
const minBeyond = 10

// p99Samples is the sample count at which the tail rule moves from p95
// to p99. Runs stop short of it, so every run of a workload reports
// the same percentile whatever the machine's speed.
const p99Samples = 100 * minBeyond

// tail is a latency tail: the highest ladder percentile that still
// has at least minBeyond samples above it, with its sample count.
type tail struct {
	Pct     float64 `json:"pct"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	Beyond  int     `json:"beyond"`
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the 1-based nearest-rank index of percentile pct in n
// samples. The tolerance keeps 99.9% of 10000 at rank 9990 despite
// binary rounding.
func rank(pct float64, n int) int {
	r := int(math.Ceil(pct*float64(n)/100 - 1e-9))
	return max(r, 1)
}

// tailOf applies the tail rule to xs. With fewer than minBeyond+1
// samples no ladder percentile qualifies and the maximum is reported
// with Beyond 0.
func tailOf(xs []float64) tail {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return tail{}
	}
	for _, p := range tailPercentiles {
		r := rank(p, n)
		if n-r >= minBeyond {
			return tail{Pct: p, Value: s[r-1], Samples: n, Beyond: n - r}
		}
	}
	return tail{Pct: 100, Value: s[n-1], Samples: n}
}

// median is the middle value of xs (mean of the two middle values
// for an even count); NaN when xs is empty.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// geomean is the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
