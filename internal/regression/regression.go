// Package regression implements the classic Extra-P regression modeler that
// the paper uses as its baseline (Section III): for every admissible PMNF
// exponent pair it fits the hypothesis c0 + c1 * x^i * log2(x)^j by linear
// least squares, scores hypotheses with leave-one-out cross-validated SMAPE,
// and selects the best. Multi-parameter models are found by first modeling
// every parameter separately along a measurement line and then testing all
// additive and multiplicative combinations of the top single-parameter
// hypotheses.
//
// The hypothesis-fitting and combination machinery is exported because the
// DNN modeler shares it: the DNN merely replaces the exhaustive search over
// all 43 classes with the network's top-3 predicted classes.
package regression

import (
	"errors"
	"fmt"
	"sort"

	"extrapdnn/internal/mat"
	"extrapdnn/internal/measurement"
	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/stats"
)

// DefaultTopK is the number of best single-parameter hypotheses per
// parameter carried into the multi-parameter combination search, matching
// the paper's use of the network's top three classification results.
const DefaultTopK = 3

// Options configures the modeler.
type Options struct {
	// TopK bounds the single-parameter hypotheses per parameter considered
	// during multi-parameter combination. Zero means DefaultTopK.
	TopK int
	// Classes restricts the searched exponent classes. Nil means all 43
	// admissible classes (the classic Extra-P search).
	Classes []pmnf.Exponents
}

func (o Options) topK() int {
	if o.TopK <= 0 {
		return DefaultTopK
	}
	return o.TopK
}

func (o Options) classes() []pmnf.Exponents {
	if o.Classes == nil {
		return pmnf.Classes()
	}
	return o.Classes
}

// Result is a selected performance model together with its cross-validated
// SMAPE score (percent, smaller is better).
type Result struct {
	Model pmnf.Model
	SMAPE float64
}

// Candidate is one fitted single-parameter hypothesis.
type Candidate struct {
	Exps   pmnf.Exponents
	C0, C1 float64
	SMAPE  float64 // leave-one-out cross-validated SMAPE
}

// FitLine searches the given exponent classes over one single-parameter
// measurement line (strictly increasing xs, median values vs) and returns up
// to topK candidates ordered by ascending cross-validated SMAPE. The
// constant hypothesis is always searched so a parameter without influence on
// performance can be recognized.
func FitLine(xs, vs []float64, classes []pmnf.Exponents, topK int) ([]Candidate, error) {
	if len(xs) != len(vs) {
		return nil, fmt.Errorf("regression: %d positions vs %d values", len(xs), len(vs))
	}
	if len(xs) < measurement.MinPointsPerParameter {
		return nil, fmt.Errorf("regression: need at least %d points per parameter, got %d",
			measurement.MinPointsPerParameter, len(xs))
	}
	var cands []Candidate
	seenConstant := false
	ws := newFitWorkspace(len(xs), 2)
	for _, e := range classes {
		if e.IsConstant() {
			seenConstant = true
		}
		c, ok := ws.fitHypothesis(xs, vs, e)
		if ok {
			cands = append(cands, c)
		}
	}
	if !seenConstant {
		if c, ok := ws.fitHypothesis(xs, vs, pmnf.Exponents{}); ok {
			cands = append(cands, c)
		}
	}
	if len(cands) == 0 {
		return nil, errors.New("regression: no hypothesis could be fitted")
	}
	// Rank by cross-validated SMAPE; on (near-)ties prefer the simpler
	// hypothesis — the same bias toward the simplest explanation that the
	// PMNF itself encodes.
	sort.SliceStable(cands, func(a, b int) bool {
		da, db := cands[a].SMAPE, cands[b].SMAPE
		if diff := da - db; diff < -1e-9 || diff > 1e-9 {
			return da < db
		}
		ca := cands[a].Exps.I + cands[a].Exps.J/4
		cb := cands[b].Exps.I + cands[b].Exps.J/4
		return ca < cb
	})
	if len(cands) > topK {
		cands = cands[:topK]
	}
	return cands, nil
}

// fitWorkspace holds the buffers of n×p least-squares fits scored by
// leave-one-out cross-validation. One workspace serves the whole class loop
// of a FitLine call (p = 2) and every structure with p coefficients of a
// Combine call: the design matrix, the QR scratch (which keeps the
// column-equilibrated design), the Gram matrix, its Cholesky factor and
// inverse and the fit/LOO vectors are written in place per fit instead of
// reallocated, and all n leave-one-out folds share one fit through the
// hat-matrix identity. Every accumulation runs in the same order as the
// allocating code it replaces (mat.MulVecTo vs MulVec, mat.GramTo vs Gram,
// the solve's equilibrated copy vs a second equilibration, one Cholesky
// factor vs one SolveCholesky per column), so the results are bit-identical
// — pinned by TestFitLineMatchesReference and TestCombineMatchesReference.
type fitWorkspace struct {
	a    *mat.Matrix // n×p design: intercept column + term columns
	gram *mat.Matrix // p×p Gram matrix of the equilibrated design
	chol *mat.Matrix // p×p Cholesky factor of gram
	inv  *mat.Matrix // p×p inverse of gram
	ls   *mat.LeastSquaresWorkspace
	fits []float64 // in-sample predictions a·coef
	loo  []float64 // leave-one-out predictions
	hv   []float64 // inv·a_i scratch for hat values
	unit []float64 // unit vector for the column-wise Gram inversion
	col  []float64 // one column of inv
	z    []float64 // Cholesky forward-solve scratch
}

func newFitWorkspace(n, p int) *fitWorkspace {
	return &fitWorkspace{
		a:    mat.New(n, p),
		gram: mat.New(p, p),
		chol: mat.New(p, p),
		inv:  mat.New(p, p),
		ls:   mat.NewLeastSquaresWorkspace(n, p),
		fits: make([]float64, n),
		loo:  make([]float64, n),
		hv:   make([]float64, p),
		unit: make([]float64, p),
		col:  make([]float64, p),
		z:    make([]float64, p),
	}
}

// fitHypothesis fits one exponent class to a line and scores it by
// leave-one-out cross-validation.
func (ws *fitWorkspace) fitHypothesis(xs, vs []float64, e pmnf.Exponents) (Candidate, bool) {
	n := len(xs)
	if e.IsConstant() {
		// Constant model: the LOO prediction for point i is the mean of the
		// remaining points.
		total := 0.0
		for _, v := range vs {
			total += v
		}
		loo := ws.loo
		for i, v := range vs {
			loo[i] = (total - v) / float64(n-1)
		}
		return Candidate{Exps: e, C0: total / float64(n), SMAPE: stats.SMAPE(loo, vs)}, true
	}
	for i, x := range xs {
		ws.a.Set(i, 0, 1)
		ws.a.Set(i, 1, e.Eval(x))
	}
	coef, err := ws.ls.Solve(ws.a, vs)
	if err != nil {
		return Candidate{}, false
	}
	if err := ws.looPredictions(vs, coef); err != nil {
		return Candidate{}, false
	}
	return Candidate{Exps: e, C0: coef[0], C1: coef[1], SMAPE: stats.SMAPE(ws.loo, vs)}, true
}

// looPredictions computes the exact leave-one-out predictions of the
// design ws.a, just solved by ws.ls, into ws.loo using the hat-matrix
// identity
//
//	pred_i = y_i - r_i / (1 - h_ii),  h_ii = a_i^T (A^T A)^{-1} a_i,
//
// which avoids refitting per point. coef must be the full-data solution.
func (ws *fitWorkspace) looPredictions(y, coef []float64) error {
	n, p := ws.a.Rows(), ws.a.Cols()
	mat.MulVecTo(ws.fits, ws.a, coef)
	// Hat values are invariant under column scaling, so compute them from
	// the column-equilibrated copy the least-squares solve made: PMNF
	// designs mix unit intercepts with term columns of enormous magnitude,
	// which would wreck the Gram solve.
	eq := ws.ls.Equilibrated()
	mat.GramTo(ws.gram, eq)
	// Invert the Gram matrix column by column via Cholesky solves.
	if err := mat.CholeskyTo(ws.chol, ws.gram); err != nil {
		return err
	}
	for j := 0; j < p; j++ {
		ws.unit[j] = 1
		mat.CholeskySolveTo(ws.col, ws.z, ws.chol, ws.unit)
		ws.unit[j] = 0
		for i := 0; i < p; i++ {
			ws.inv.Set(i, j, ws.col[i])
		}
	}
	for i := 0; i < n; i++ {
		ai := eq.Row(i)
		fit := ws.fits[i]
		mat.MulVecTo(ws.hv, ws.inv, ai)
		h := mat.Dot(ai, ws.hv)
		den := 1 - h
		if den < 1e-10 {
			// The point fully determines its own fit; fall back to the
			// in-sample prediction (the hypothesis is too flexible for LOO).
			ws.loo[i] = fit
			continue
		}
		ws.loo[i] = y[i] - (y[i]-fit)/den
	}
	return nil
}

// Model builds a performance model for a measurement set with any number of
// parameters using the classic exhaustive regression search.
func Model(set *measurement.Set, opts Options) (Result, error) {
	if err := set.Validate(); err != nil {
		return Result{}, err
	}
	p, err := Prepare(set)
	if err != nil {
		return Result{}, err
	}
	return ModelLines(p, opts)
}

// ModelLines is Model on a prepared set, so a caller running several
// modelers on one set reduces it once.
func ModelLines(p *Prepared, opts Options) (Result, error) {
	perParam := make([][]Candidate, len(p.Lines))
	for l, line := range p.Lines {
		cands, err := FitLine(line.Xs, line.Vs, opts.classes(), opts.topK())
		if err != nil {
			return Result{}, fmt.Errorf("parameter %d: %w", l, err)
		}
		perParam[l] = cands
	}
	return p.Combine(perParam)
}
