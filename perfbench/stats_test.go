package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

// The tail figure is the highest candidate percentile with at least ten
// samples beyond its nearest rank.
func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantP float64
	}{
		{5, 50},       // too few samples for any percentile: the median
		{19, 50},      // p50 has 9 beyond it
		{20, 50},      // p50 has 10 beyond it, p90 only 2
		{25, 50},      // a sweep's 25 tasks
		{100, 90},     // p90 has 10 beyond it, p95 only 5
		{199, 90},     // p95 has 9 beyond it
		{200, 95},     // p95 has 10 beyond it
		{835, 95},     // the paper-fast unit count: p99 has 8 beyond it
		{1000, 99},    // p99 has 10 beyond it
		{10000, 99.9}, // p99.9 has 10 beyond it
	} {
		p, v := tail(seq(tc.n))
		if p != tc.wantP {
			t.Errorf("n=%d: percentile %v, want %v", tc.n, p, tc.wantP)
			continue
		}
		rank := int(math.Ceil(p*float64(tc.n)/100 - 1e-9))
		if v != float64(rank) {
			t.Errorf("n=%d p%v: value %v, want the rank-%d sample %d", tc.n, p, v, rank, rank)
		}
		if beyond := tc.n - rank; tc.n >= 20 && beyond < 10 {
			t.Errorf("n=%d p%v: only %d samples beyond", tc.n, p, beyond)
		}
	}
}

// quartile must agree with Python's statistics.quantiles(xs, n=4), the
// rule the spread of a metric is judged by.
func TestQuartileMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{seq(10), 2.75, 8.25},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{2, 1}, 0.75, 2.25},
		// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{7}, 7, 7},
	} {
		if q1, q3 := quartile(tc.xs, 1), quartile(tc.xs, 3); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median(seq(10)); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
}
