package main

import (
	"math"
	"math/rand"
	"testing"
)

// TestTailRule checks that the tail is the highest ladder percentile
// with at least ten samples beyond it.
func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pct    float64
		beyond int
	}{
		{10, 100, 0}, // too few samples for any percentile: the maximum
		{19, 100, 0},
		{20, 50, 10},
		{99, 75, 24},
		{100, 90, 10},
		{199, 90, 19},
		{200, 95, 10},
		{999, 95, 49},
		{1000, 99, 10},
		{10000, 99.9, 10},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rand.New(rand.NewSource(int64(tc.n))).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		got := tailOf(xs)
		// Values are 1..n, so the value at a rank is the rank.
		want := tail{Pct: tc.pct, Value: float64(tc.n - tc.beyond), Samples: tc.n, Beyond: tc.beyond}
		if got != want {
			t.Errorf("n=%d: got %+v, want %+v", tc.n, got, want)
		}
	}
	if got := tailOf(nil); got != (tail{}) {
		t.Errorf("empty: got %+v", got)
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if g := geomean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean = %v", g)
	}
}
