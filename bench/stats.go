package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples. The input need not be sorted.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the cut points Python's
// statistics.quantiles(v, n=4) gives (the exclusive method), which is
// what the benchmark contract computes spreads from. Fewer than two
// samples yield the single value three times.
func quartiles(v []float64) (q1, q2, q3 float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// tailPercentiles are the candidates for the "high percentile" of a
// timing, lowest first, each with the sample count that leaves ten
// samples beyond it.
var tailPercentiles = []struct {
	p    float64
	need int
}{{90, 100}, {95, 200}, {99, 1000}, {99.9, 10000}}

// tailPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it, so the reported tail is never a single
// outlier. It returns 50 when even p90 has fewer than ten.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, c := range tailPercentiles {
		if n >= c.need {
			best = c.p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
