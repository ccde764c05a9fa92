package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the middle two for an even
// count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into four groups,
// computed like Python's statistics.quantiles(xs, n=4) with its default
// "exclusive" method, so spreads printed here match steady.py's.
// xs needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range of xs as a share of its median; 0
// for fewer than two values.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100)
// and how many samples lie strictly beyond its rank.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s) - rank
}

// jobP90 is the nearest-rank p90 of job latencies. ok is false unless at
// least ten jobs lie beyond it, the fewest that make a tail percentile
// worth reporting.
func jobP90(latencies []float64) (p90 float64, ok bool) {
	v, beyond := percentile(latencies, 90)
	return v, beyond >= 10
}
