package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values of Python's
// statistics.quantiles(xs, n=4), which steady.py uses for spreads.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
		{[]float64{1, 2, 4, 8, 16}, 1.5, 4, 12},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	for _, tc := range []struct {
		p      float64
		want   float64
		beyond int
	}{
		{50, 50, 50}, {90, 90, 10}, {99, 99, 1}, {100, 100, 0}, {1, 1, 99},
	} {
		got, beyond := percentile(xs, tc.p)
		if got != tc.want || beyond != tc.beyond {
			t.Errorf("p%v = %v (%d beyond), want %v (%d beyond)", tc.p, got, beyond, tc.want, tc.beyond)
		}
	}
	if v, beyond := percentile(nil, 90); v != 0 || beyond != 0 {
		t.Errorf("empty percentile = %v, %d", v, beyond)
	}
}

// TestJobP90TenBeyond pins the ten-beyond rule: p90 is reported only
// when at least ten samples lie past its rank.
func TestJobP90TenBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if _, ok := jobP90(mk(99)); ok {
		t.Error("99 samples (9 beyond p90) accepted")
	}
	if v, ok := jobP90(mk(100)); !ok || v != 90 {
		t.Errorf("100 samples: p90 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := jobP90(mk(batchJobs)); !ok {
		t.Errorf("a service batch of %d jobs must satisfy the rule", batchJobs)
	}
}
