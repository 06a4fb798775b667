package noise

import (
	"math"
	"math/rand"
	"testing"

	"extrapdnn/internal/measurement"
	"extrapdnn/internal/stats"
)

// The functions below are the two-pass noise analysis Analyze replaced,
// verbatim: every point's relative deviations are computed once for its
// level and again, into one slice of all deviations, for the global range.

func refRelativeDeviations(m measurement.Measurement) []float64 {
	if len(m.Values) == 0 {
		return nil
	}
	mean := stats.Mean(m.Values)
	if mean == 0 {
		return nil
	}
	out := make([]float64, len(m.Values))
	for i, v := range m.Values {
		out[i] = (v - mean) / mean
	}
	return out
}

func refRange(deviations []float64) float64 {
	if len(deviations) == 0 {
		return 0
	}
	return stats.Max(deviations) - stats.Min(deviations)
}

func refPointLevel(m measurement.Measurement) float64 {
	return refRange(refRelativeDeviations(m))
}

func refPointLevelCorrected(m measurement.Measurement) float64 {
	k := len(m.Values)
	if k < 2 {
		return 0
	}
	return refPointLevel(m) * float64(k+1) / float64(k-1)
}

func refEstimateLevel(s *measurement.Set) float64 {
	var all []float64
	for _, m := range s.Data {
		all = append(all, refRelativeDeviations(m)...)
	}
	return refRange(all)
}

func refAnalyze(s *measurement.Set) Analysis {
	levels := make([]float64, len(s.Data))
	for i, m := range s.Data {
		levels[i] = refPointLevelCorrected(m)
	}
	a := Analysis{
		PointLevels: levels,
		Global:      refEstimateLevel(s),
	}
	if len(levels) > 0 {
		a.Mean = stats.Mean(levels)
		a.Median = stats.Median(levels)
		a.Min = stats.Min(levels)
		a.Max = stats.Max(levels)
	}
	return a
}

// sameBits reports whether a and b are the same float64, NaN payload and
// zero sign included.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameAnalysis(a, b Analysis) bool {
	if len(a.PointLevels) != len(b.PointLevels) {
		return false
	}
	for i := range a.PointLevels {
		if !sameBits(a.PointLevels[i], b.PointLevels[i]) {
			return false
		}
	}
	return sameBits(a.Mean, b.Mean) && sameBits(a.Median, b.Median) && sameBits(a.Min, b.Min) &&
		sameBits(a.Max, b.Max) && sameBits(a.Global, b.Global)
}

// TestAnalyzeMatchesReference pins the one-pass Analyze bit for bit to the
// two-pass analysis it replaced, on random sets and on the edge cases of
// the fold: zero-mean points, single repetitions, empty points and NaN and
// infinite values at every position.
func TestAnalyzeMatchesReference(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	edge := [][][]float64{
		{{1, -1}, {90, 110}, {5}},
		{{5}, {nan, 1, 2}, {90, 110}},
		{{nan, 2}, {90, 110}},
		{{90, 110}, {3, nan}},
		{{inf, 1}, {90, 110}, {-inf, inf}},
		{{0, 0}, {}, {7}},
		{{}, {}},
		{{1e308, 1e308}, {90, 110}},
		{{-3, -5, -4}, {2, 6}},
		{{0, 5}, {-0.0, 5}},
		{{-2, -2}},
		{{-2, -2}, {nan, 1}, {-1, -1, -1}},
	}
	check := func(name string, set *measurement.Set) {
		t.Helper()
		if got, want := Analyze(set), refAnalyze(set); !sameAnalysis(got, want) {
			t.Fatalf("%s: Analyze = %+v, reference %+v", name, got, want)
		}
		if got, want := EstimateLevel(set), refEstimateLevel(set); !sameBits(got, want) {
			t.Fatalf("%s: EstimateLevel = %v, reference %v", name, got, want)
		}
	}
	for c, points := range edge {
		set := &measurement.Set{}
		for i, v := range points {
			set.Data = append(set.Data, measurement.Measurement{Point: measurement.Point{float64(i + 1)}, Values: v})
		}
		check("edge case "+string(rune('a'+c)), set)
	}
	rng := rand.New(rand.NewSource(1))
	specials := []float64{nan, inf, -inf, 0, -1}
	for trial := 0; trial < 500; trial++ {
		set := &measurement.Set{}
		for i := rng.Intn(12); i >= 0; i-- {
			vals := make([]float64, rng.Intn(6))
			for r := range vals {
				vals[r] = 1 + rng.Float64()*100
				if rng.Intn(20) == 0 {
					vals[r] = specials[rng.Intn(len(specials))]
				}
			}
			set.Data = append(set.Data, measurement.Measurement{Point: measurement.Point{float64(i + 1)}, Values: vals})
		}
		check("random set", set)
	}
	check("empty set", &measurement.Set{})
}
