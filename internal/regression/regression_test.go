package regression

import (
	"math"
	"math/rand"
	"testing"

	"extrapdnn/internal/mat"
	"extrapdnn/internal/measurement"
	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/synth"
)

// lineSet builds a one-parameter measurement set from f evaluated at xs.
func lineSet(xs []float64, f func(x float64) float64) *measurement.Set {
	s := &measurement.Set{}
	for _, x := range xs {
		s.Data = append(s.Data, measurement.Measurement{
			Point:  measurement.Point{x},
			Values: []float64{f(x)},
		})
	}
	return s
}

// gridSet builds a two-parameter grid measurement set.
func gridSet(xs, ys []float64, f func(x, y float64) float64) *measurement.Set {
	s := &measurement.Set{}
	for _, x := range xs {
		for _, y := range ys {
			s.Data = append(s.Data, measurement.Measurement{
				Point:  measurement.Point{x, y},
				Values: []float64{f(x, y)},
			})
		}
	}
	return s
}

func TestFitHypothesisExactRecovery(t *testing.T) {
	xs := []float64{4, 8, 16, 32, 64}
	e := pmnf.Exponents{I: 1, J: 1}
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = 3 + 2*e.Eval(x)
	}
	c, ok := newFitWorkspace(len(xs), 2).fitHypothesis(xs, vs, e)
	if !ok {
		t.Fatal("fit failed")
	}
	if math.Abs(c.C0-3) > 1e-6 || math.Abs(c.C1-2) > 1e-6 {
		t.Fatalf("coefficients = %v/%v, want 3/2", c.C0, c.C1)
	}
	if c.SMAPE > 1e-6 {
		t.Fatalf("noiseless SMAPE = %v, want ~0", c.SMAPE)
	}
}

func TestFitHypothesisConstant(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	vs := []float64{7, 7, 7, 7, 7}
	c, ok := newFitWorkspace(len(xs), 2).fitHypothesis(xs, vs, pmnf.Exponents{})
	if !ok || math.Abs(c.C0-7) > 1e-12 || c.SMAPE > 1e-9 {
		t.Fatalf("constant fit = %+v", c)
	}
}

func TestFitLineSelectsTrueClass(t *testing.T) {
	// For several generating classes, the noiseless search must rank the true
	// exponents at (or indistinguishably near) the top.
	for _, e := range []pmnf.Exponents{
		{I: 1, J: 0}, {I: 2, J: 0}, {I: 0.5, J: 0}, {I: 1, J: 1}, {I: 0, J: 2}, {I: 3, J: 0},
	} {
		xs := []float64{4, 8, 16, 32, 64, 128}
		vs := make([]float64, len(xs))
		for i, x := range xs {
			vs[i] = 10 + 0.5*e.Eval(x)
		}
		cands, err := FitLine(xs, vs, pmnf.Classes(), 3)
		if err != nil {
			t.Fatal(err)
		}
		if d := pmnf.Distance(cands[0].Exps, e); d > 0.26 {
			t.Errorf("class %+v: best candidate %+v at distance %v", e, cands[0].Exps, d)
		}
	}
}

func TestFitLineTopKOrderedAndBounded(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	vs := []float64{11, 21, 31, 41, 51}
	cands, err := FitLine(xs, vs, pmnf.Classes(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 3 {
		t.Fatalf("got %d candidates", len(cands))
	}
	for i := 1; i < len(cands); i++ {
		if cands[i-1].SMAPE > cands[i].SMAPE {
			t.Fatal("candidates not sorted by SMAPE")
		}
	}
}

func TestFitLineTooFewPoints(t *testing.T) {
	if _, err := FitLine([]float64{1, 2}, []float64{1, 2}, pmnf.Classes(), 3); err == nil {
		t.Fatal("expected error for too few points")
	}
}

func TestFitLineMismatchedLengths(t *testing.T) {
	if _, err := FitLine([]float64{1, 2, 3, 4, 5}, []float64{1}, pmnf.Classes(), 3); err == nil {
		t.Fatal("expected error for mismatched lengths")
	}
}

func TestFitLineAlwaysConsidersConstant(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	vs := []float64{9, 9, 9, 9, 9}
	linear := []pmnf.Exponents{{I: 1, J: 0}}
	cands, err := FitLine(xs, vs, linear, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !cands[0].Exps.IsConstant() {
		t.Fatalf("constant data should select constant hypothesis, got %+v", cands[0].Exps)
	}
}

func TestLooPredictionsMatchExplicitRefit(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 8
	a := mat.New(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a.Set(i, 0, 1)
		a.Set(i, 1, float64(i+1))
		y[i] = 2 + 3*float64(i+1) + rng.NormFloat64()
	}
	coef, err := mat.LeastSquares(a, y)
	if err != nil {
		t.Fatal(err)
	}
	loo, err := looPredictions(a, y, coef)
	if err != nil {
		t.Fatal(err)
	}
	// Explicit refit leaving out point i.
	for i := 0; i < n; i++ {
		sub := mat.New(n-1, 2)
		suby := make([]float64, 0, n-1)
		r := 0
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			sub.Set(r, 0, a.At(j, 0))
			sub.Set(r, 1, a.At(j, 1))
			suby = append(suby, y[j])
			r++
		}
		subcoef, err := mat.LeastSquares(sub, suby)
		if err != nil {
			t.Fatal(err)
		}
		want := subcoef[0] + subcoef[1]*a.At(i, 1)
		if math.Abs(loo[i]-want) > 1e-8 {
			t.Fatalf("LOO prediction %d: hat %v vs refit %v", i, loo[i], want)
		}
	}
}

func TestModelSingleParameterRecovery(t *testing.T) {
	e := pmnf.Exponents{I: 1.0 / 2, J: 1}
	set := lineSet([]float64{4, 8, 16, 32, 64}, func(x float64) float64 {
		return 5 + 0.25*e.Eval(x)
	})
	res, err := Model(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lead := res.Model.LeadExponents()
	if d := pmnf.Distance(lead[0], e); d > 0.26 {
		t.Fatalf("recovered %v (lead %+v), want exponents %+v", res.Model, lead[0], e)
	}
	if res.SMAPE > 0.5 {
		t.Fatalf("SMAPE = %v, want near 0", res.SMAPE)
	}
}

func TestModelTwoParameterAdditive(t *testing.T) {
	set := gridSet(
		[]float64{4, 8, 16, 32, 64},
		[]float64{10, 20, 30, 40, 50},
		func(x, y float64) float64 { return 3 + 2*x + 5*y },
	)
	res, err := Model(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lead := res.Model.LeadExponents()
	if pmnf.Distance(lead[0], pmnf.Exponents{I: 1}) > 0.26 ||
		pmnf.Distance(lead[1], pmnf.Exponents{I: 1}) > 0.26 {
		t.Fatalf("lead exponents %+v, want linear in both", lead)
	}
	// Prediction at an extrapolation point should be close.
	got := res.Model.Eval([]float64{128, 60})
	want := 3.0 + 2*128 + 5*60
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("extrapolation %v, want %v", got, want)
	}
}

func TestModelTwoParameterMultiplicative(t *testing.T) {
	set := gridSet(
		[]float64{4, 8, 16, 32, 64},
		[]float64{2, 4, 6, 8, 10},
		func(x, y float64) float64 { return 1 + 0.5*x*y*y },
	)
	res, err := Model(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Model.Eval([]float64{128, 12})
	want := 1 + 0.5*128*144
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("extrapolation %v, want %v (model %v)", got, want, res.Model)
	}
}

func TestModelConstantData(t *testing.T) {
	set := lineSet([]float64{1, 2, 3, 4, 5}, func(x float64) float64 { return 42 })
	res, err := Model(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lead := res.Model.LeadExponents()
	if !lead[0].IsConstant() {
		t.Fatalf("constant data modeled as %v", res.Model)
	}
	if math.Abs(res.Model.Eval([]float64{100})-42) > 1e-6 {
		t.Fatalf("constant model value %v", res.Model.Eval([]float64{100}))
	}
}

func TestModelInvalidSet(t *testing.T) {
	if _, err := Model(&measurement.Set{}, Options{}); err == nil {
		t.Fatal("expected error for empty set")
	}
}

func TestSelectLines(t *testing.T) {
	set := gridSet(
		[]float64{4, 8, 16, 32, 64},
		[]float64{10, 20, 30, 40, 50},
		func(x, y float64) float64 { return x + y },
	)
	lines, err := SelectLines(set)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("%d lines", len(lines))
	}
	for l, line := range lines {
		if line.Param != l || len(line.Xs) != 5 {
			t.Fatalf("line %d = %+v", l, line)
		}
		for i := 1; i < len(line.Xs); i++ {
			if line.Xs[i-1] >= line.Xs[i] {
				t.Fatal("line not sorted")
			}
		}
	}
}

func TestSelectLinesSparseCross(t *testing.T) {
	// Two crossing lines (the FASTEST/RELeARN layout): 5 points varying x
	// with y=50, plus 5 points varying y with x=4, overlapping at (4,50).
	s := &measurement.Set{}
	for _, x := range []float64{4, 8, 16, 32, 64} {
		s.Data = append(s.Data, measurement.Measurement{Point: measurement.Point{x, 50}, Values: []float64{x + 50}})
	}
	for _, y := range []float64{10, 20, 30, 40} {
		s.Data = append(s.Data, measurement.Measurement{Point: measurement.Point{4, y}, Values: []float64{4 + y}})
	}
	lines, err := SelectLines(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines[0].Xs) != 5 {
		t.Fatalf("x line has %d points", len(lines[0].Xs))
	}
	if len(lines[1].Xs) != 5 {
		t.Fatalf("y line has %d points (should include the crossing point)", len(lines[1].Xs))
	}
}

func TestSelectLinesOrderIndependent(t *testing.T) {
	// Three equally long x-lines at y = 1, 2, 3 whose relative spans, 0,
	// 0.8e-12 and 1.6e-12, are pairwise within the 1e-12 tie tolerance
	// except for the outer two. The tolerance is not transitive, so the
	// chosen line must not depend on the order the groups are visited in.
	// Two extra points at x = 1 give the y-line its five points.
	s := &measurement.Set{}
	for i, span := range []float64{0, 0.8e-12, 1.6e-12} {
		y := float64(i + 1)
		for x := 1.0; x <= 5; x++ {
			v := 1.0
			if x == 5 {
				v += span
			}
			s.Data = append(s.Data, measurement.Measurement{Point: measurement.Point{x, y}, Values: []float64{v}})
		}
	}
	for _, y := range []float64{4, 5} {
		s.Data = append(s.Data, measurement.Measurement{Point: measurement.Point{1, y}, Values: []float64{1}})
	}
	for call := 0; call < 200; call++ {
		lines, err := SelectLines(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := lines[0].Fixed[1]; got != 3 {
			t.Fatalf("call %d: x-line at y = %g, want y = 3", call, got)
		}
	}
}

func TestSelectLinesInsufficient(t *testing.T) {
	s := lineSet([]float64{1, 2, 3}, func(x float64) float64 { return x })
	if _, err := SelectLines(s); err == nil {
		t.Fatal("expected error for 3-point line")
	}
}

func TestCombineErrors(t *testing.T) {
	set := lineSet([]float64{1, 2, 3, 4, 5}, func(x float64) float64 { return x })
	if _, err := Combine(set, nil); err == nil {
		t.Fatal("expected error for wrong candidate list count")
	}
	if _, err := Combine(set, [][]Candidate{{}}); err == nil {
		t.Fatal("expected error for empty candidate list")
	}
}

// combineAllocCeiling bounds the allocations of one Combine call on the
// m = 3 fixture below: 3 for set.Medians (its two slices and one reused
// scratch), one key per distinct structure (136 here), the column cache,
// one workspace per coefficient count and the improving models come to 305.
// One allocation per fit would add 136, and one per point 125, so a
// workspace, column cache, key or median that starts allocating per fit or
// per point again fails the gate.
const combineAllocCeiling = 340

func TestCombineAllocations(t *testing.T) {
	inst := synth.GenInstance(rand.New(rand.NewSource(9)), synth.TaskSpec{
		NumParams: 3, PointsPerParam: 5, Reps: 5, NoiseLevel: 0.1, EvalPoints: 1,
	})
	perParam := lineCandidates(t, inst.Set, DefaultTopK)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Combine(inst.Set, perParam); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > combineAllocCeiling {
		t.Fatalf("Combine at m = 3 allocates %v times per call, ceiling %d", allocs, combineAllocCeiling)
	}
}

// modelAllocCeiling bounds the allocations of one Model call on the same
// m = 3 fixture (125 points, 25 lines per parameter): Validate's 125 point
// keys, two strings per candidate line (its Float64bits key and "%g," text)
// and the lines themselves, the three FitLine searches and Combine's 305
// come to 732. A key or median taken per point and parameter again adds
// hundreds.
const modelAllocCeiling = 760

func TestModelAllocations(t *testing.T) {
	inst := synth.GenInstance(rand.New(rand.NewSource(9)), synth.TaskSpec{
		NumParams: 3, PointsPerParam: 5, Reps: 5, NoiseLevel: 0.1, EvalPoints: 1,
	})
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Model(inst.Set, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > modelAllocCeiling {
		t.Fatalf("Model at m = 3 allocates %v times per call, ceiling %d", allocs, modelAllocCeiling)
	}
}

func TestSetPartitionsCounts(t *testing.T) {
	for m, want := range map[int]int{1: 1, 2: 2, 3: 5, 4: 15} {
		if got := len(setPartitions(m)); got != want {
			t.Errorf("Bell(%d) = %d, want %d", m, got, want)
		}
	}
}

func TestModelNoisyStillReasonable(t *testing.T) {
	// With mild noise the regression modeler should stay near the truth.
	rng := rand.New(rand.NewSource(77))
	e := pmnf.Exponents{I: 1, J: 0}
	set := lineSet([]float64{4, 8, 16, 32, 64}, func(x float64) float64 {
		return (2 + 3*e.Eval(x)) * (1 + 0.05*(rng.Float64()-0.5))
	})
	res, err := Model(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lead := res.Model.LeadExponents()
	if d := pmnf.Distance(lead[0], e); d > 0.5 {
		t.Fatalf("noisy recovery too far: %v (d=%v)", res.Model, d)
	}
}

func TestThreeParameterKripkeShape(t *testing.T) {
	// f = 8.51 + 0.11 * x1^(1/3) * x2 * x3^(4/5): the multiplicative
	// three-parameter model from the paper's Kripke case study.
	s := &measurement.Set{}
	for _, x1 := range []float64{8, 64, 512, 4096, 32768} {
		for _, x2 := range []float64{2, 4, 6, 8, 10} {
			for _, x3 := range []float64{32, 64, 96, 128, 160} {
				v := 8.51 + 0.11*math.Pow(x1, 1.0/3)*x2*math.Pow(x3, 0.8)
				s.Data = append(s.Data, measurement.Measurement{
					Point:  measurement.Point{x1, x2, x3},
					Values: []float64{v},
				})
			}
		}
	}
	res, err := Model(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pred := res.Model.Eval([]float64{32768, 12, 160})
	want := 8.51 + 0.11*math.Pow(32768, 1.0/3)*12*math.Pow(160, 0.8)
	if math.Abs(pred-want)/want > 0.1 {
		t.Fatalf("Kripke extrapolation %v, want %v (model %v)", pred, want, res.Model)
	}
}
