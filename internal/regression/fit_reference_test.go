package regression

// The workspace-based hypothesis fitter (fitWorkspace.fitHypothesis) must
// stay bit-identical to the straightforward allocating implementation it
// replaced: refFitHypothesis below is that original code, retained verbatim
// as the executable specification, except that it solves and takes its hat
// values through mat.LeastSquaresWorkspace (Solve, Leverages), the one
// least-squares arithmetic, whose accuracy TestFitOracle in internal/mat
// pins. Any reordering of floating-point accumulation in the fast path
// shows up here as a bit mismatch.

import (
	"math"
	"math/rand"
	"testing"

	"extrapdnn/internal/mat"
	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/stats"
	"extrapdnn/internal/synth"
)

// refFitHypothesis is the pre-workspace implementation: fresh design matrix
// and LOO buffers per class, the allocating looPredictions/equilibrated.
func refFitHypothesis(xs, vs []float64, e pmnf.Exponents) (Candidate, bool) {
	n := len(xs)
	if e.IsConstant() {
		total := 0.0
		for _, v := range vs {
			total += v
		}
		loo := make([]float64, n)
		for i, v := range vs {
			loo[i] = (total - v) / float64(n-1)
		}
		return Candidate{Exps: e, C0: total / float64(n), SMAPE: stats.SMAPE(loo, vs)}, true
	}
	a := mat.New(n, 2)
	for i, x := range xs {
		a.Set(i, 0, 1)
		a.Set(i, 1, e.Eval(x))
	}
	ls := mat.NewLeastSquaresWorkspace(n, 2)
	coef, err := ls.Solve(a, vs)
	if err != nil {
		return Candidate{}, false
	}
	loo := looPredictions(ls, a, vs, coef)
	return Candidate{Exps: e, C0: coef[0], C1: coef[1], SMAPE: stats.SMAPE(loo, vs)}, true
}

// looPredictions is the allocating leave-one-out computation that
// (*fitWorkspace).looPredictions replaced: exact LOO predictions of a linear
// least-squares fit via the hat-matrix identity
//
//	pred_i = y_i - r_i / (1 - h_ii),  h_ii = a_i^T (A^T A)^{-1} a_i.
//
// ls must have just solved a for the full-data solution coef. The hat
// values come from mat's helper, the one arithmetic for them; the oracle in
// internal/mat pins that helper's accuracy.
func looPredictions(ls *mat.LeastSquaresWorkspace, a *mat.Matrix, y, coef []float64) []float64 {
	n := a.Rows()
	fits := mat.MulVec(a, coef)
	hat := make([]float64, n)
	ls.Leverages(hat, ls.Equilibrated())
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		fit := fits[i]
		den := 1 - hat[i]
		if den < 1e-10 {
			// The point fully determines its own fit; fall back to the
			// in-sample prediction (the hypothesis is too flexible for LOO).
			out[i] = fit
			continue
		}
		out[i] = y[i] - (y[i]-fit)/den
	}
	return out
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func TestFitLineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	classes := append(pmnf.Classes(), pmnf.Exponents{})
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(4)
		xs := synth.GenSequence(rng, synth.RandomSequenceKind(rng), n)
		truth := pmnf.Class(rng.Intn(pmnf.NumClasses))
		vs := make([]float64, n)
		for i, x := range xs {
			vs[i] = (1 + 10*rng.Float64()) * (1 + truth.Eval(x)) * synth.NoiseFactor(rng, rng.Float64())
		}
		ws := newFitWorkspace(n, 2)
		for _, e := range classes {
			got, gotOK := ws.fitHypothesis(xs, vs, e)
			want, wantOK := refFitHypothesis(xs, vs, e)
			if gotOK != wantOK {
				t.Fatalf("trial %d class %+v: ok=%v, reference ok=%v", trial, e, gotOK, wantOK)
			}
			if !gotOK {
				continue
			}
			if got.Exps != want.Exps || !sameBits(got.C0, want.C0) ||
				!sameBits(got.C1, want.C1) || !sameBits(got.SMAPE, want.SMAPE) {
				t.Fatalf("trial %d class %+v: workspace fit %+v differs from reference %+v",
					trial, e, got, want)
			}
		}
	}
}

// BenchmarkFitLine measures the full 43-class single-parameter search that
// dominates the regression modeler; the workspace keeps its steady state to
// a handful of allocations per class (LeastSquares + Cholesky scratch)
// instead of reallocating every design, Gram, inverse and LOO buffer.
func BenchmarkFitLine(b *testing.B) {
	xs := []float64{4, 8, 16, 32, 64, 128}
	e := pmnf.Exponents{I: 1, J: 1}
	vs := make([]float64, len(xs))
	rng := rand.New(rand.NewSource(3))
	for i, x := range xs {
		vs[i] = (3 + 2*e.Eval(x)) * synth.NoiseFactor(rng, 0.2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitLine(xs, vs, pmnf.Classes(), DefaultTopK); err != nil {
			b.Fatal(err)
		}
	}
}
