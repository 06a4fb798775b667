package noise

import (
	"math"
	"math/rand"
	"testing"

	"extrapdnn/internal/measurement"
)

// analyzeValues analyzes a set with one point per value list.
func analyzeValues(vals ...[]float64) Analysis {
	set := &measurement.Set{}
	for i, v := range vals {
		set.Data = append(set.Data, measurement.Measurement{Point: measurement.Point{float64(i + 1)}, Values: v})
	}
	return Analyze(set)
}

func TestRelativeDeviations(t *testing.T) {
	// rd = [-0.1, 0.1]: range 0.2, corrected by (2+1)/(2-1) = 3.
	a := analyzeValues([]float64{90, 110})
	if math.Abs(a.Global-0.2) > 1e-12 || math.Abs(a.PointLevels[0]-0.6) > 1e-12 {
		t.Fatalf("analysis = %+v, want global 0.2 and level 0.6", a)
	}
}

func TestRelativeDeviationsDegenerate(t *testing.T) {
	// A point without values or with a zero mean has no deviations.
	a := analyzeValues(nil, []float64{1, -1})
	if a.Global != 0 || a.PointLevels[0] != 0 || a.PointLevels[1] != 0 {
		t.Fatalf("analysis = %+v, want all zero", a)
	}
}

func TestRange(t *testing.T) {
	// Global is the range of all points' deviations together: the first
	// point spans [-0.05, 0.05], the second [-0.1, 0.1] in reverse order.
	a := analyzeValues([]float64{95, 105}, []float64{110, 90})
	if math.Abs(a.Global-0.2) > 1e-12 {
		t.Fatalf("Global = %v, want 0.2", a.Global)
	}
}

func TestPointLevelNoiseless(t *testing.T) {
	if a := analyzeValues([]float64{5, 5, 5}); a.PointLevels[0] != 0 || a.Global != 0 {
		t.Fatal("identical repetitions have zero noise")
	}
}

func TestPointLevelCorrectedSingleRep(t *testing.T) {
	if analyzeValues([]float64{5}).PointLevels[0] != 0 {
		t.Fatal("single repetition carries no noise information")
	}
}

// TestEstimateLevelRecoversUniformNoise is the reproduction of the paper's
// in-text claim that the rrd heuristic estimates the injected noise level
// with a small average error (they report 4.93%). We inject uniform noise of
// a known level into many synthetic points and check the estimate.
func TestEstimateLevelRecoversUniformNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, level := range []float64{0.05, 0.10, 0.20, 0.50, 1.0} {
		var errSum float64
		const trials = 40
		for trial := 0; trial < trials; trial++ {
			set := &measurement.Set{}
			for p := 0; p < 25; p++ {
				base := 10 + rng.Float64()*1000
				vals := make([]float64, 5)
				for r := range vals {
					vals[r] = base * (1 + level*(rng.Float64()-0.5))
				}
				set.Data = append(set.Data, measurement.Measurement{
					Point:  measurement.Point{float64(p + 1)},
					Values: vals,
				})
			}
			est := EstimateLevel(set)
			errSum += math.Abs(est-level) / level
		}
		// The paper reports 4.93% average error; at very high noise levels the
		// mean-centering of Eq. 3 biases the estimate, so we allow up to 20%.
		avgErr := errSum / trials
		if avgErr > 0.20 {
			t.Errorf("level %.0f%%: average estimation error %.1f%% exceeds 20%%", level*100, avgErr*100)
		}
	}
}

// The bias-corrected per-point estimate should be approximately unbiased for
// uniform noise.
func TestPointLevelCorrectedUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const level = 0.4
	sum := 0.0
	const n = 4000
	for i := 0; i < n; i++ {
		vals := make([]float64, 5)
		for r := range vals {
			vals[r] = 100 * (1 + level*(rng.Float64()-0.5))
		}
		sum += analyzeValues(vals).PointLevels[0]
	}
	mean := sum / n
	if math.Abs(mean-level) > 0.03 {
		t.Fatalf("corrected mean = %v, want ~%v", mean, level)
	}
}

func TestAnalyze(t *testing.T) {
	set := &measurement.Set{Data: []measurement.Measurement{
		{Point: measurement.Point{1}, Values: []float64{100, 100}},
		{Point: measurement.Point{2}, Values: []float64{90, 110}},
	}}
	a := Analyze(set)
	if len(a.PointLevels) != 2 {
		t.Fatalf("PointLevels = %v", a.PointLevels)
	}
	if a.Min != 0 {
		t.Fatalf("Min = %v, want 0", a.Min)
	}
	// Second point: rd range 0.2, corrected by (2+1)/(2-1)=3 → 0.6.
	if math.Abs(a.Max-0.6) > 1e-12 {
		t.Fatalf("Max = %v, want 0.6", a.Max)
	}
	if a.Global <= 0 {
		t.Fatal("Global estimate should be positive")
	}
	if a.Mean <= 0 || a.Median < 0 {
		t.Fatal("summary stats wrong")
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(&measurement.Set{})
	if len(a.PointLevels) != 0 || a.Global != 0 {
		t.Fatalf("empty analysis = %+v", a)
	}
}
