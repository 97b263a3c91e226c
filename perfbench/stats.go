package main

import (
	"math"
	"sort"
	"time"
)

// minTailSamples is the sample count below which a percentile other
// than the median is not reported: with fewer than forty samples the
// 99th percentile has no samples beyond it and would be no tail.
const minTailSamples = 40

// quantile returns the q-quantile of xs (0 <= q <= 1) by linear
// interpolation between closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// percentiles reports the median and, when there are enough samples
// for it to be a tail, the 99th percentile. ok is false when only the
// median is meaningful.
func percentiles(xs []float64) (p50, p99 float64, ok bool) {
	p50 = median(xs)
	if len(xs) < minTailSamples {
		return p50, math.NaN(), false
	}
	return p50, quantile(xs, 0.99), true
}

// quartiles returns the first quartile, median and third quartile of
// xs with the "exclusive" method Python's statistics.quantiles uses by
// default, so spreads printed here match the ones computed from the
// result lines.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// statistics.quantiles(method="exclusive"), n=4.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), median(s), at(3)
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
