// Package noise implements the paper's heuristic noise estimation
// (Section IV-B). Measurement noise is modeled as uniform: a noise level n
// means each measured value deviates by up to ±n/2 from the true value.
// The estimator computes relative deviations of the repetitions around each
// point's mean (Eq. 3) and takes the range of all relative deviations
// (Eq. 4), which spans the full noise width much better than any single
// point's repetitions alone.
package noise

import (
	"extrapdnn/internal/measurement"
	"extrapdnn/internal/stats"
)

// EstimateLevel estimates the overall noise level of a measurement set as
// the range of the combined relative deviations of all points (the paper's
// range-of-relative-deviation heuristic). The result is a fraction: 0.10
// means ±5% deviation around the true value. It is Analyze's Global field.
func EstimateLevel(s *measurement.Set) float64 {
	return Analyze(s).Global
}

// Analysis summarizes the noise levels found in a measurement set, both the
// per-point distribution (Fig. 5 of the paper) and the combined estimate.
type Analysis struct {
	PointLevels []float64 // bias-corrected per-point noise levels (fractions)
	Mean        float64   // mean of PointLevels
	Median      float64   // median of PointLevels
	Min         float64   // smallest per-point level
	Max         float64   // largest per-point level
	Global      float64   // combined range-of-relative-deviation estimate
}

// Analyze computes the noise analysis of a measurement set in one pass over
// the relative deviations rd(v) = (v - mean)/mean of each point (Eq. 3). A
// point's level is the range of its deviations times (k+1)/(k-1) for k
// repetitions, which removes the expected range shrinkage of k uniform
// draws; fewer than two repetitions or a zero mean give level 0. Global is
// the range of all deviations (Eq. 4), folded from the per-point extremes
// with stats.Min's and stats.Max's comparisons: exact, since a point's
// deviations are either all NaN or none is.
func Analyze(s *measurement.Set) Analysis {
	levels := make([]float64, len(s.Data))
	var lo, hi float64
	seen := false
	for i, m := range s.Data {
		mean := stats.Mean(m.Values)
		if len(m.Values) == 0 || mean == 0 {
			continue
		}
		var plo, phi float64
		for j, v := range m.Values {
			d := (v - mean) / mean
			if j == 0 || d < plo {
				plo = d
			}
			if j == 0 || d > phi {
				phi = d
			}
		}
		if k := len(m.Values); k >= 2 {
			levels[i] = (phi - plo) * float64(k+1) / float64(k-1)
		}
		if !seen || plo < lo {
			lo = plo
		}
		if !seen || phi > hi {
			hi = phi
		}
		seen = true
	}
	a := Analysis{PointLevels: levels}
	if seen {
		a.Global = hi - lo
	}
	if len(levels) > 0 {
		a.Mean = stats.Mean(levels)
		a.Median = stats.Median(levels)
		a.Min = stats.Min(levels)
		a.Max = stats.Max(levels)
	}
	return a
}
