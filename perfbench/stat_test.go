package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if quantile(nil, 0.5) != 0 || median([]float64{7}) != 7 {
		t.Error("empty or single-sample quantile is wrong")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("even-length median = %v, want 2.5", got)
	}
}

// A tail percentile is reported only with at least ten samples beyond
// it.
func TestTailQuantileSampleCount(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	bounds := []int64{10, 20, 50}
	// 10 observations in (10,20], 10 in (20,50].
	counts := []int64{0, 10, 10, 0}
	if got := histQuantile(bounds, counts, 0.5); got != 20 {
		t.Errorf("p50 = %v, want 20", got)
	}
	if got := histQuantile(bounds, counts, 0.75); got != 35 {
		t.Errorf("p75 = %v, want 35 (halfway through (20,50])", got)
	}
	if got := histQuantile(bounds, []int64{0, 0, 0, 4}, 0.5); got != 50 {
		t.Errorf("overflow-bucket p50 = %v, want its lower edge 50", got)
	}
	if got := histQuantile(bounds, []int64{0, 0, 0, 0}, 0.5); got != 0 {
		t.Errorf("empty histogram p50 = %v, want 0", got)
	}
}
