// Package apps simulates the measurement campaigns of the paper's three
// application case studies (Section VI): Kripke on Vulcan (BG/Q), FASTEST
// on SuperMUC, and RELeARN on Lichtenberg. The real machines and codes are
// unavailable, so each case study is reproduced from the information the
// paper publishes: the per-kernel asymptotic complexity, the exact
// parameter-value sets and measurement-point layout, the repetition count,
// and the measured noise distribution (Fig. 5). See DESIGN.md §4 for why
// this substitution preserves the evaluated behavior.
package apps

import (
	"fmt"
	"math"
	"math/rand"

	"extrapdnn/internal/measurement"
	"extrapdnn/internal/pmnf"
)

// Kernel is one application kernel with a known generating model.
type Kernel struct {
	Name string
	// Truth is the generating performance model over the app's parameters.
	Truth pmnf.Model
	// RuntimeShare is the kernel's approximate fraction of total application
	// runtime. Kernels at or below 1% are excluded from the predictive-power
	// analysis, as in the paper.
	RuntimeShare float64
}

// PerformanceRelevant reports whether the kernel passes the paper's 1%
// runtime-share filter.
func (k Kernel) PerformanceRelevant() bool { return k.RuntimeShare > 0.01 }

// App describes one simulated case study.
type App struct {
	Name        string
	ParamNames  []string
	ModelPoints []measurement.Point // points used for model creation
	EvalPoint   measurement.Point   // the extrapolation point P+
	Reps        int
	// NoiseLo/NoiseHi bound the per-point noise level; NoiseSkew > 1 biases
	// draws toward the low end (high noise occurs rarely, as observed in
	// Fig. 5: level = lo + (hi-lo) * U^NoiseSkew).
	NoiseLo, NoiseHi, NoiseSkew float64
	Kernels                     []Kernel
}

// noiseLevel draws one per-point noise level from the app's profile.
func (a *App) noiseLevel(rng *rand.Rand) float64 {
	skew := a.NoiseSkew
	if skew <= 0 {
		skew = 1
	}
	return a.NoiseLo + (a.NoiseHi-a.NoiseLo)*math.Pow(rng.Float64(), skew)
}

// Generate produces the noisy measurement set of one kernel at the app's
// modeling points. Each point gets its own noise level from the app's
// profile, and Reps repetitions within that level.
func (a *App) Generate(rng *rand.Rand, k Kernel) *measurement.Set {
	set := &measurement.Set{ParamNames: a.ParamNames, Metric: "runtime"}
	for _, pt := range a.ModelPoints {
		base := k.Truth.Eval(pt)
		level := a.noiseLevel(rng)
		vals := make([]float64, a.Reps)
		for r := range vals {
			vals[r] = base * (1 + level*(rng.Float64()-0.5))
		}
		set.Data = append(set.Data, measurement.Measurement{Point: pt.Clone(), Values: vals})
	}
	return set
}

// Campaign simulates one complete measurement campaign of a kernel: the
// modeling measurements plus the evaluation measurement at P+ (median of the
// repetitions). Each point draws its own noise level from the app's profile,
// reflecting that run-to-run variability differs between configurations
// (larger process counts tend to be noisier, queue placement varies, …).
func (a *App) Campaign(rng *rand.Rand, k Kernel) (set *measurement.Set, evalRef float64) {
	pointLevel := func() float64 { return a.noiseLevel(rng) }
	measure := func(pt measurement.Point) measurement.Measurement {
		truth := k.Truth.Eval(pt)
		level := pointLevel()
		vals := make([]float64, a.Reps)
		for r := range vals {
			vals[r] = truth * (1 + level*(rng.Float64()-0.5))
		}
		return measurement.Measurement{Point: pt.Clone(), Values: vals}
	}
	set = &measurement.Set{ParamNames: a.ParamNames, Metric: "runtime"}
	for _, pt := range a.ModelPoints {
		set.Data = append(set.Data, measure(pt))
	}
	evalMeas := measure(a.EvalPoint)
	evalRef, _ = evalMeas.Median()
	return set, evalRef
}

// grid builds the cartesian product of parameter values as points.
func grid(values ...[]float64) []measurement.Point {
	if len(values) == 0 {
		return nil
	}
	pts := []measurement.Point{{}}
	for _, vs := range values {
		var next []measurement.Point
		for _, p := range pts {
			for _, v := range vs {
				np := make(measurement.Point, len(p)+1)
				copy(np, p)
				np[len(p)] = v
				next = append(next, np)
			}
		}
		pts = next
	}
	return pts
}

// crossLines builds the sparse two-line layout used by FASTEST and RELeARN:
// one line varying parameter 0 at a fixed value of parameter 1, and one line
// varying parameter 1 at a fixed value of parameter 0 (overlapping point
// deduplicated).
func crossLines(xs []float64, yFixed float64, xFixed float64, ys []float64) []measurement.Point {
	var pts []measurement.Point
	seen := map[string]bool{}
	add := func(x, y float64) {
		key := fmt.Sprintf("%g/%g", x, y)
		if !seen[key] {
			seen[key] = true
			pts = append(pts, measurement.Point{x, y})
		}
	}
	for _, x := range xs {
		add(x, yFixed)
	}
	for _, y := range ys {
		add(xFixed, y)
	}
	return pts
}

// term is a convenience constructor for a PMNF term over m parameters.
func term(coeff float64, m int, factors map[int]pmnf.Exponents) pmnf.Term {
	t := pmnf.Term{Coefficient: coeff, Exps: make([]pmnf.Exponents, m)}
	for l, e := range factors {
		t.Exps[l] = e
	}
	return t
}
