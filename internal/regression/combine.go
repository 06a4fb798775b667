package regression

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"extrapdnn/internal/measurement"
	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/stats"
)

// Combine builds the best multi-parameter model from per-parameter candidate
// hypotheses (Section IV-D): every selection of one candidate per parameter
// is combined through every set partition of the parameters — parameters in
// the same block multiply within one term, distinct blocks add — the
// coefficients are refitted on all measurement points, and the model with
// the smallest leave-one-out cross-validated SMAPE wins. A purely constant
// model is always among the candidates.
//
// For a single parameter this reduces to selecting the best candidate, with
// coefficients refitted on the full set.
func Combine(set *measurement.Set, perParam [][]Candidate) (Result, error) {
	p := &Prepared{Set: set}
	p.Points, p.Values = set.Medians()
	return p.Combine(perParam)
}

// Combine is the package-level Combine on the prepared points and medians.
func (p *Prepared) Combine(perParam [][]Candidate) (Result, error) {
	m := p.Set.NumParams()
	if len(perParam) != m {
		return Result{}, fmt.Errorf("regression: %d candidate lists for %d parameters", len(perParam), m)
	}
	for l, c := range perParam {
		if len(c) == 0 {
			return Result{}, fmt.Errorf("regression: no candidates for parameter %d", l)
		}
	}
	partitions := setPartitions(m)
	c := newCombiner(p.Points, p.Values, perParam, len(partitions))

	// The constant model is the fallback when no parameter influences
	// performance.
	c.try(nil)

	var terms [][]int
	var enumerate func(l int)
	enumerate = func(l int) {
		if l == m {
			for _, blocks := range partitions {
				terms = terms[:0]
				for _, block := range blocks {
					for _, p := range block {
						if !perParam[p][c.sel[p]].Exps.IsConstant() {
							terms = append(terms, block)
							break
						}
					}
				}
				c.try(terms)
			}
			return
		}
		for i := range perParam[l] {
			c.sel[l] = i
			enumerate(l + 1)
		}
	}
	enumerate(0)

	best := c.best
	if math.IsInf(best.SMAPE, 1) {
		return Result{}, errors.New("regression: no combination could be fitted")
	}
	// Preserve the parameter count even for models without terms (NumParams
	// falls back to len(ParamNames)).
	names := p.Set.ParamNames
	if len(names) != m {
		names = make([]string, m)
		copy(names, p.Set.ParamNames)
	}
	best.Model.ParamNames = names
	return best, nil
}

// combiner is the state of one Combine call. A term is a block of the
// current parameter partition (ascending parameter indices) under the
// current candidate selection sel; its exponent vector holds the selected
// candidate's exponents at the block's parameters and zero elsewhere.
type combiner struct {
	m, n     int       // parameters, points
	values   []float64 // median value per point
	perParam [][]Candidate
	sel      []int // selected candidate index per parameter
	// cols[l][c][i] is perParam[l][c].Exps.Eval(points[i][l]), evaluated
	// once per call; nil for constant candidates.
	cols   [][][]float64
	ws     []*fitWorkspace // by coefficient count, created on first use
	seen   map[string]struct{}
	parts  []byte   // key part of each term of the current structure
	sorted [][]byte // the parts in sorted order
	key    []byte
	best   Result
}

// newCombiner evaluates the column cache; partitions sizes the set of seen
// structures.
func newCombiner(points []measurement.Point, values []float64, perParam [][]Candidate, partitions int) *combiner {
	m, n := len(perParam), len(points)
	tries := partitions
	for _, cands := range perParam {
		tries *= len(cands)
	}
	c := &combiner{
		m:        m,
		n:        n,
		values:   values,
		perParam: perParam,
		sel:      make([]int, m),
		cols:     make([][][]float64, m),
		ws:       make([]*fitWorkspace, m+2),
		seen:     make(map[string]struct{}, 1+tries),
		best:     Result{SMAPE: math.Inf(1)},
	}
	for l, cands := range perParam {
		c.cols[l] = make([][]float64, len(cands))
		for k, cand := range cands {
			if cand.Exps.IsConstant() {
				continue
			}
			col := make([]float64, n)
			for i, pt := range points {
				col[i] = cand.Exps.Eval(pt[l])
			}
			c.cols[l][k] = col
		}
	}
	return c
}

// try fits a structure not tried before (in any term order) and keeps it
// if it beats the best so far.
func (c *combiner) try(terms [][]int) {
	if !c.markSeen(terms) {
		return
	}
	coef, smape, ok := c.fitTerms(terms)
	if !ok || !(smape < c.best.SMAPE) {
		return
	}
	model := pmnf.Model{Constant: coef[0]}
	for t, block := range terms {
		exps := make([]pmnf.Exponents, c.m)
		for _, l := range block {
			exps[l] = c.perParam[l][c.sel[l]].Exps
		}
		model.Terms = append(model.Terms, pmnf.Term{Coefficient: coef[t+1], Exps: exps})
	}
	c.best = Result{Model: model, SMAPE: smape}
}

// fitTerms fits the coefficients of the structure with the given terms on
// all measurement points and scores it by leave-one-out SMAPE. The
// intercept is implicit; coef belongs to the workspace of its size.
func (c *combiner) fitTerms(terms [][]int) (coef []float64, smape float64, ok bool) {
	n, p := c.n, 1+len(terms)
	if n < p+1 {
		return nil, 0, false // too few points to cross-validate p coefficients
	}
	ws := c.ws[p]
	if ws == nil {
		ws = newFitWorkspace(n, p)
		c.ws[p] = ws
	}
	// Each term column is the elementwise product of its non-constant
	// factors in ascending parameter order, starting from the first factor:
	// the same products as accumulating from 1.0, since 1.0*x == x.
	a := ws.a.Data()
	for i := 0; i < n; i++ {
		a[i*p] = 1
	}
	for t, block := range terms {
		started := false
		for _, l := range block {
			col := c.cols[l][c.sel[l]]
			switch {
			case col == nil:
			case !started:
				for i, v := range col {
					a[i*p+t+1] = v
				}
				started = true
			default:
				for i, v := range col {
					a[i*p+t+1] *= v
				}
			}
		}
	}
	coef, err := ws.ls.Solve(ws.a, c.values)
	if err != nil {
		return nil, 0, false
	}
	if err := ws.looPredictions(c.values, coef); err != nil {
		return nil, 0, false
	}
	return coef, stats.SMAPE(ws.loo, c.values), true
}

// markSeen records the structure and reports whether it is new. Its key is
// the Float64bits of (I, J) of every parameter of every term, with the terms
// sorted so that the key does not depend on term order.
func (c *combiner) markSeen(terms [][]int) bool {
	w := 16 * c.m
	c.parts = c.parts[:0]
	for _, block := range terms {
		b := 0
		for l := 0; l < c.m; l++ {
			var e pmnf.Exponents
			if b < len(block) && block[b] == l {
				e = c.perParam[l][c.sel[l]].Exps
				b++
			}
			c.parts = binary.BigEndian.AppendUint64(c.parts, math.Float64bits(e.I))
			c.parts = binary.BigEndian.AppendUint64(c.parts, math.Float64bits(e.J))
		}
	}
	c.sorted = c.sorted[:0]
	for t := range terms {
		c.sorted = append(c.sorted, c.parts[t*w:(t+1)*w])
	}
	slices.SortFunc(c.sorted, bytes.Compare)
	c.key = c.key[:0]
	for _, part := range c.sorted {
		c.key = append(c.key, part...)
	}
	if _, ok := c.seen[string(c.key)]; ok {
		return false
	}
	c.seen[string(c.key)] = struct{}{}
	return true
}

// setPartitions enumerates all set partitions of {0..m-1}. The count is the
// Bell number (1, 2, 5, 15, …); the modelers use m <= 3 in practice.
func setPartitions(m int) [][][]int {
	var out [][][]int
	var current [][]int
	var rec func(l int)
	rec = func(l int) {
		if l == m {
			cp := make([][]int, len(current))
			for i, b := range current {
				cb := make([]int, len(b))
				copy(cb, b)
				cp[i] = cb
			}
			out = append(out, cp)
			return
		}
		for i := range current {
			current[i] = append(current[i], l)
			rec(l + 1)
			current[i] = current[i][:len(current[i])-1]
		}
		current = append(current, []int{l})
		rec(l + 1)
		current = current[:len(current)-1]
	}
	rec(0)
	return out
}
