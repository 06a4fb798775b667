package regression

// Combine must stay bit-identical to the straightforward implementation it
// replaced: refCombine below is that original code (Combine, fitTerms and
// modelKey), retained verbatim as the executable specification, except that
// it solves and takes its hat values through mat.LeastSquaresWorkspace, as
// refFitHypothesis does. The fast path evaluates every (parameter, exponent)
// column once per call, builds every distinct term column once, shares the
// intercept's Householder step, keys term structures by Float64bits and fits
// in one workspace per coefficient count; any change of floating-point order,
// of the columns or of which duplicate structure is fitted first shows up
// here as a bit mismatch.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"extrapdnn/internal/mat"
	"extrapdnn/internal/measurement"
	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/stats"
	"extrapdnn/internal/synth"
)

// refCombine is the pre-cache Combine.
func refCombine(set *measurement.Set, perParam [][]Candidate) (Result, error) {
	m := set.NumParams()
	if len(perParam) != m {
		return Result{}, fmt.Errorf("regression: %d candidate lists for %d parameters", len(perParam), m)
	}
	for l, c := range perParam {
		if len(c) == 0 {
			return Result{}, fmt.Errorf("regression: no candidates for parameter %d", l)
		}
	}
	points, values := set.Medians()

	best := Result{SMAPE: math.Inf(1)}
	seen := map[string]bool{}
	tryModel := func(terms [][]pmnf.Exponents) {
		key := refModelKey(terms)
		if seen[key] {
			return
		}
		seen[key] = true
		res, err := refFitTerms(points, values, terms, m)
		if err != nil {
			return
		}
		if res.SMAPE < best.SMAPE {
			best = res
		}
	}

	// The constant model is the fallback when no parameter influences
	// performance.
	tryModel(nil)

	partitions := setPartitions(m)
	selection := make([]Candidate, m)
	var enumerate func(l int)
	enumerate = func(l int) {
		if l == m {
			for _, blocks := range partitions {
				terms := make([][]pmnf.Exponents, 0, len(blocks))
				for _, block := range blocks {
					exps := make([]pmnf.Exponents, m)
					nonConstant := false
					for _, p := range block {
						exps[p] = selection[p].Exps
						if !selection[p].Exps.IsConstant() {
							nonConstant = true
						}
					}
					if nonConstant {
						terms = append(terms, exps)
					}
				}
				tryModel(terms)
			}
			return
		}
		for _, c := range perParam[l] {
			selection[l] = c
			enumerate(l + 1)
		}
	}
	enumerate(0)

	if math.IsInf(best.SMAPE, 1) {
		return Result{}, errors.New("regression: no combination could be fitted")
	}
	// Preserve the parameter count even for models without terms (NumParams
	// falls back to len(ParamNames)).
	names := set.ParamNames
	if len(names) != m {
		names = make([]string, m)
		copy(names, set.ParamNames)
	}
	best.Model.ParamNames = names
	return best, nil
}

// refFitTerms is the pre-workspace fitTerms: a fresh design matrix per
// structure, every term column evaluated from scratch, a QR from the first
// step, allocating LOO.
func refFitTerms(points []measurement.Point, values []float64, terms [][]pmnf.Exponents, m int) (Result, error) {
	n := len(points)
	p := 1 + len(terms)
	if n < p+1 {
		return Result{}, fmt.Errorf("regression: %d points cannot support %d coefficients", n, p)
	}
	a := mat.New(n, p)
	for i, pt := range points {
		a.Set(i, 0, 1)
		for t, exps := range terms {
			prod := 1.0
			for l, e := range exps {
				if !e.IsConstant() {
					prod *= e.Eval(pt[l])
				}
			}
			a.Set(i, t+1, prod)
		}
	}
	ls := mat.NewLeastSquaresWorkspace(n, p)
	coef, err := ls.Solve(a, values)
	if err != nil {
		return Result{}, err
	}
	loo := looPredictions(ls, a, values, coef)
	model := pmnf.Model{Constant: coef[0]}
	for t, exps := range terms {
		e := make([]pmnf.Exponents, m)
		copy(e, exps)
		model.Terms = append(model.Terms, pmnf.Term{Coefficient: coef[t+1], Exps: e})
	}
	return Result{Model: model, SMAPE: stats.SMAPE(loo, values)}, nil
}

// refModelKey is the fmt-based canonical signature of a term structure.
func refModelKey(terms [][]pmnf.Exponents) string {
	parts := make([]string, len(terms))
	for t, exps := range terms {
		var sb strings.Builder
		for _, e := range exps {
			fmt.Fprintf(&sb, "%.6f:%.0f;", e.I, e.J)
		}
		parts[t] = sb.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// sameResult reports whether two Combine results are bit-identical: the
// selected term structure, every coefficient and the SMAPE.
func sameResult(got, want Result) bool {
	g, w := got.Model, want.Model
	if !sameBits(g.Constant, w.Constant) || !sameBits(got.SMAPE, want.SMAPE) ||
		len(g.Terms) != len(w.Terms) || (g.Terms == nil) != (w.Terms == nil) ||
		!reflect.DeepEqual(g.ParamNames, w.ParamNames) {
		return false
	}
	for t := range g.Terms {
		gt, wt := g.Terms[t], w.Terms[t]
		if !sameBits(gt.Coefficient, wt.Coefficient) || len(gt.Exps) != len(wt.Exps) {
			return false
		}
		for l := range gt.Exps {
			if !sameBits(gt.Exps[l].I, wt.Exps[l].I) || !sameBits(gt.Exps[l].J, wt.Exps[l].J) {
				return false
			}
		}
	}
	return true
}

// checkCombine pins Combine to refCombine on one input twice over: step by
// step (checkTries) and by the result it returns.
func checkCombine(t *testing.T, name string, set *measurement.Set, perParam [][]Candidate) {
	t.Helper()
	checkTries(t, name, set, perParam)
	got, gotErr := Combine(set, perParam)
	want, wantErr := refCombine(set, perParam)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: err = %v, reference err = %v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !sameResult(got, want) {
		t.Fatalf("%s: Combine %v (SMAPE %v) differs from reference %v (SMAPE %v)",
			name, got.Model, got.SMAPE, want.Model, want.SMAPE)
	}
}

// lineCandidates is the modelers' own candidate list: the top-k FitLine
// hypotheses of each selected line.
func lineCandidates(tb testing.TB, set *measurement.Set, topK int) [][]Candidate {
	tb.Helper()
	lines, err := SelectLines(set)
	if err != nil {
		tb.Fatal(err)
	}
	perParam := make([][]Candidate, len(lines))
	for l, line := range lines {
		if perParam[l], err = FitLine(line.Xs, line.Vs, pmnf.Classes(), topK); err != nil {
			tb.Fatal(err)
		}
	}
	return perParam
}

// randomCandidates draws k exponent classes per parameter, constant
// included, with repeats allowed.
func randomCandidates(rng *rand.Rand, m, k int) [][]Candidate {
	perParam := make([][]Candidate, m)
	for l := range perParam {
		for c := 0; c < k; c++ {
			var e pmnf.Exponents
			if rng.Intn(5) > 0 {
				e = pmnf.Class(rng.Intn(pmnf.NumClasses))
			}
			perParam[l] = append(perParam[l], Candidate{Exps: e})
		}
	}
	return perParam
}

// randomSet draws n points of m parameters; fixed >= 0 pins that parameter
// to a single value, which makes every design using it rank-deficient.
func randomSet(rng *rand.Rand, m, n, fixed int) *measurement.Set {
	set := &measurement.Set{}
	for i := 0; i < n; i++ {
		pt := make(measurement.Point, m)
		for l := range pt {
			pt[l] = float64(2 + rng.Intn(1000))
			if l == fixed {
				pt[l] = 16
			}
		}
		v := 1 + 100*rng.Float64()
		set.Data = append(set.Data, measurement.Measurement{Point: pt, Values: []float64{v, v * 1.01}})
	}
	return set
}

func TestCombineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for m := 1; m <= 3; m++ {
		for trial := 0; trial < 6; trial++ {
			inst := synth.GenInstance(rng, synth.TaskSpec{
				NumParams: m, PointsPerParam: 5, Reps: 3, NoiseLevel: rng.Float64(), EvalPoints: 1,
			})
			name := fmt.Sprintf("m=%d trial %d", m, trial)
			checkCombine(t, name+" top-3", inst.Set, lineCandidates(t, inst.Set, DefaultTopK))
			checkCombine(t, name+" top-5", inst.Set, lineCandidates(t, inst.Set, 5))
			checkCombine(t, name+" random", inst.Set, randomCandidates(rng, m, 1+rng.Intn(4)))
		}
	}
}

func TestCombineMatchesReferenceEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	constant := []Candidate{{Exps: pmnf.Exponents{}}}
	shared := []Candidate{
		{Exps: pmnf.Exponents{I: 1}}, {Exps: pmnf.Exponents{I: 0.5, J: 1}}, {Exps: pmnf.Exponents{}},
		{Exps: pmnf.Exponents{I: 1}}, // a repeat within the list
	}
	for m := 1; m <= 3; m++ {
		set := randomSet(rng, m, 20, -1)
		onlyConstant := make([][]Candidate, m)
		duplicated := make([][]Candidate, m)
		for l := range onlyConstant {
			onlyConstant[l] = constant
			duplicated[l] = shared
		}
		checkCombine(t, fmt.Sprintf("m=%d constant-only", m), set, onlyConstant)
		checkCombine(t, fmt.Sprintf("m=%d duplicates across parameters", m), set, duplicated)
		for fixed := 0; fixed < m; fixed++ {
			name := fmt.Sprintf("m=%d parameter %d single-valued", m, fixed)
			checkCombine(t, name, randomSet(rng, m, 20, fixed), duplicated)
		}
		// Point counts around the minimum: below two points nothing can
		// be cross-validated, and a p-coefficient structure needs p+1.
		for n := 1; n <= m+3; n++ {
			name := fmt.Sprintf("m=%d n=%d", m, n)
			checkCombine(t, name, randomSet(rng, m, n, -1), randomCandidates(rng, m, 3))
		}
	}
}

// checkTries pins Combine's search rather than its winner alone: walking
// the reference enumeration, every structure must be judged new exactly when
// refModelKey judges it new, and every new one must be fitted to the
// reference coefficients and SMAPE, bit for bit, whether or not it wins.
func checkTries(t *testing.T, name string, set *measurement.Set, perParam [][]Candidate) {
	t.Helper()
	m := len(perParam)
	points, values := set.Medians()
	partitions := setPartitions(m)
	c := newCombiner(points, values, perParam, len(partitions))
	refSeen := map[string]bool{}
	check := func(blocks [][]int) {
		var terms [][]int
		var refTerms [][]pmnf.Exponents
		for _, block := range blocks {
			exps := make([]pmnf.Exponents, m)
			nonConstant := false
			for _, p := range block {
				exps[p] = perParam[p][c.sel[p]].Exps
				nonConstant = nonConstant || !exps[p].IsConstant()
			}
			if nonConstant {
				terms = append(terms, block)
				refTerms = append(refTerms, exps)
			}
		}
		key := refModelKey(refTerms)
		if isNew := c.markSeen(terms); isNew != !refSeen[key] {
			t.Fatalf("%s: structure %q new = %v, reference new = %v", name, key, isNew, !refSeen[key])
		}
		if refSeen[key] {
			return
		}
		refSeen[key] = true
		want, wantErr := refFitTerms(points, values, refTerms, m)
		coef, smape, ok := c.fitTerms(terms)
		if ok != (wantErr == nil) {
			t.Fatalf("%s: structure %q fitted = %v, reference err = %v", name, key, ok, wantErr)
		}
		if !ok {
			return
		}
		if !sameBits(coef[0], want.Model.Constant) || !sameBits(smape, want.SMAPE) {
			t.Fatalf("%s: structure %q: constant %v SMAPE %v, reference %v %v",
				name, key, coef[0], smape, want.Model.Constant, want.SMAPE)
		}
		for i, term := range want.Model.Terms {
			if !sameBits(coef[i+1], term.Coefficient) {
				t.Fatalf("%s: structure %q: coefficients %v, reference model %v", name, key, coef, want.Model)
			}
		}
	}
	check(nil)
	var enumerate func(l int)
	enumerate = func(l int) {
		if l == m {
			for _, blocks := range partitions {
				check(blocks)
			}
			return
		}
		for i := range perParam[l] {
			c.sel[l] = i
			enumerate(l + 1)
		}
	}
	enumerate(0)
}

// BenchmarkCombine measures the multi-parameter hypothesis search alone, on
// the top-3 FitLine candidates of a synthetic full-grid instance.
func BenchmarkCombine(b *testing.B) {
	for m := 1; m <= 3; m++ {
		rng := rand.New(rand.NewSource(9))
		inst := synth.GenInstance(rng, synth.TaskSpec{
			NumParams: m, PointsPerParam: 5, Reps: 5, NoiseLevel: 0.1, EvalPoints: 1,
		})
		perParam := lineCandidates(b, inst.Set, DefaultTopK)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Combine(inst.Set, perParam); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
