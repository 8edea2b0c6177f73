package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartile returns the i-th quartile (i = 1 or 3) as Python's
// statistics.quantiles(xs, n=4) computes it (the default "exclusive"
// method), so spreads read here match spreads computed from the printed
// results. A single sample is its own quartile.
func quartile(xs []float64, i int) float64 {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return median(s)
	}
	m := i * (n + 1)
	j := min(max(m/4, 1), n-1)
	delta := m - 4*j
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}

// tailPercentiles are the candidates for a tail figure, highest last.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9, 99.99}

// tail returns the highest candidate percentile that has at least ten
// samples beyond it, and the sample at that rank (nearest-rank method:
// the smallest sample with at least p% of the samples at or below it).
// With fewer than 20 samples no percentile qualifies and the median rank
// is returned.
func tail(xs []float64) (p, v float64) {
	if len(xs) == 0 {
		return 50, math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	rank := func(p float64) int { return max(1, int(math.Ceil(p*float64(n)/100-1e-9))) }
	p = tailPercentiles[0]
	for _, c := range tailPercentiles {
		if n-rank(c) >= 10 {
			p = c
		}
	}
	return p, s[rank(p)-1]
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// A metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is an ordered set of named figures.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if !metricName.MatchString(name) || !unitName.MatchString(unit) {
		panic(fmt.Sprintf("invalid metric %q unit %q", name, unit))
	}
	m[name] = metric{Value: v, Unit: unit}
}
