// Package stats provides the summary statistics and error metrics used
// throughout the modeling pipeline: medians and quantiles, SMAPE (the model
// selection metric of Extra-P), relative prediction errors, and bootstrap
// confidence intervals for the evaluation harness.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Median returns the median of xs without modifying it, or NaN for an empty
// slice. For even lengths it returns the mean of the two central values.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// MedianInPlace returns the median of xs, sorting xs in place instead of
// copying it — the allocation-free variant of Median for callers that own a
// reusable scratch buffer (the synthetic data generators). It returns NaN for
// an empty slice and is bit-identical to Median on the same values.
func MedianInPlace(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return quantileSorted(xs, 0.5)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It copies xs and returns NaN for an
// empty slice or out-of-range q.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted computes the q-quantile of an already-sorted slice.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Min returns the smallest value in xs, or NaN for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, v := range xs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest value in xs, or NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// SMAPE returns the symmetric mean absolute percentage error, in percent,
// between predictions and actuals:
//
//	SMAPE = 100/n * Σ |p_i - a_i| / ((|a_i| + |p_i|)/2)
//
// Pairs where both values are zero contribute zero error. It panics if the
// slices have different lengths and returns NaN for empty input.
func SMAPE(pred, actual []float64) float64 {
	if len(pred) != len(actual) {
		panic(fmt.Sprintf("stats: SMAPE length mismatch %d vs %d", len(pred), len(actual)))
	}
	if len(pred) == 0 {
		return math.NaN()
	}
	s := 0.0
	for i, p := range pred {
		a := actual[i]
		denom := (math.Abs(a) + math.Abs(p)) / 2
		if denom == 0 {
			continue
		}
		s += math.Abs(p-a) / denom
	}
	return 100 * s / float64(len(pred))
}

// RelativeErrorPct returns |pred - actual| / |actual| in percent.
// When actual is zero it returns 0 if pred is also zero and +Inf otherwise.
func RelativeErrorPct(pred, actual float64) float64 {
	if actual == 0 {
		if pred == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return 100 * math.Abs(pred-actual) / math.Abs(actual)
}

// Interval is a two-sided confidence interval.
type Interval struct {
	Lo, Hi float64
}

// BootstrapCI estimates a confidence interval for statistic fn over xs by
// nonparametric bootstrap with resamples draws, at the given confidence level
// (e.g. 0.99). The rng makes the estimate deterministic for tests.
// It returns a degenerate interval for fewer than two observations.
func BootstrapCI(xs []float64, fn func([]float64) float64, resamples int, level float64, rng *rand.Rand) Interval {
	if len(xs) == 0 {
		return Interval{math.NaN(), math.NaN()}
	}
	if len(xs) == 1 {
		v := fn(xs)
		return Interval{v, v}
	}
	estimates := make([]float64, resamples)
	sample := make([]float64, len(xs))
	for r := 0; r < resamples; r++ {
		for i := range sample {
			sample[i] = xs[rng.Intn(len(xs))]
		}
		estimates[r] = fn(sample)
	}
	sort.Float64s(estimates)
	alpha := (1 - level) / 2
	return Interval{
		Lo: quantileSorted(estimates, alpha),
		Hi: quantileSorted(estimates, 1-alpha),
	}
}
