package regression

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"extrapdnn/internal/mat"
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
	// A term's design column is identified by a mixed-radix number, the
	// sum of place[l][sel[l]] over the parameters l of its block. Parameter
	// l's digit is 0 for a constant candidate and otherwise the candidate's
	// 1-based rank among l's non-constant ones, so terms whose non-constant
	// factors agree share the number and the column; 0 is the intercept.
	// The column of a non-constant candidate c alone, place[l][c], holds
	// perParam[l][c].Exps.Eval(points[i][l]) at i.
	place  [][]int
	design *designColumns
	ws     []*fitWorkspace // by coefficient count, created on first use
	seen   map[string]struct{}
	parts  []byte   // key part of each term of the current structure
	sorted [][]byte // the parts in sorted order
	key    []byte
	best   Result
}

// newCombiner builds the intercept and the factor columns; partitions sizes
// the set of seen structures.
func newCombiner(points []measurement.Point, values []float64, perParam [][]Candidate, partitions int) *combiner {
	m, n := len(perParam), len(points)
	// columns is the number of distinct term columns: ∏(kₗ+1) over the
	// parameters' counts kₗ of non-constant candidates.
	tries, candidates, columns := partitions, 0, 1
	for _, cands := range perParam {
		tries *= len(cands)
		candidates += len(cands)
		nonConstant := 0
		for _, cand := range cands {
			if !cand.Exps.IsConstant() {
				nonConstant++
			}
		}
		columns *= nonConstant + 1
	}
	c := &combiner{
		m:        m,
		n:        n,
		values:   values,
		perParam: perParam,
		sel:      make([]int, m),
		place:    make([][]int, m),
		ws:       make([]*fitWorkspace, m+2),
		seen:     make(map[string]struct{}, 1+tries),
		best:     Result{SMAPE: math.Inf(1)},
	}
	c.design = newDesignColumns(n, columns, values)
	// Each candidate is evaluated once, as its single-factor column.
	places := make([]int, candidates)
	radix := 1
	for l, cands := range perParam {
		c.place[l], places = places[:len(cands):len(cands)], places[len(cands):]
		d := 0
		for k, cand := range cands {
			if cand.Exps.IsConstant() {
				continue
			}
			d++
			id := d * radix
			c.place[l][k] = id
			col := c.design.alloc(id, n)
			for i, pt := range points {
				col[i] = cand.Exps.Eval(pt[l])
			}
			c.design.finish(id)
		}
		radix *= d + 1
	}
	return c
}

// designColumns is the store of the distinct design columns of one Combine
// call, each built once and shared by every structure that has it: the
// intercept and the single-factor columns up front, the products of factors
// on first use. For column id it keeps the raw column, its norm (the equilibration
// scale), the equilibrated column and that column reduced by the first
// Householder step of the QR. That step depends only on the intercept,
// which every structure has as its first column, so it is built once per
// call and applied once per column and once to the values.
type designColumns struct {
	raw, eq, reduced [][]float64 // by id; raw[id] == nil until built
	norm             []float64   // 0: the column is zero and fits nothing
	arena            []float64   // unused storage for columns still to be built
	h                *mat.Reflector
	y                []float64 // the values reduced by h
}

// newDesignColumns allocates room for n-point columns with ids below
// columns, exactly the number of distinct term columns a Combine call can
// build, and builds the intercept, id 0.
func newDesignColumns(n, columns int, values []float64) *designColumns {
	views := make([][]float64, 3*columns)
	arena := make([]float64, columns+(3*columns+1)*n)
	d := &designColumns{
		raw:     views[:columns:columns],
		eq:      views[columns : 2*columns : 2*columns],
		reduced: views[2*columns:],
		norm:    arena[:columns:columns],
		y:       arena[columns : columns+n : columns+n],
		arena:   arena[columns+n:],
		h:       mat.NewReflector(n),
	}
	ones := d.alloc(0, n)
	for i := range ones {
		ones[i] = 1
	}
	// The intercept's norm is positive, so its reflector exists.
	d.finish(0)
	d.h.Reduce(d.eq[0], 0)
	d.h.Apply(d.reduced[0])
	copy(d.y, values)
	d.h.Apply(d.y)
	return d
}

// alloc takes the storage of column id from the arena and returns its raw
// column for the caller to fill.
func (d *designColumns) alloc(id, n int) []float64 {
	a := d.arena
	d.raw[id], d.eq[id], d.reduced[id] = a[:n:n], a[n:2*n:2*n], a[2*n:3*n:3*n]
	d.arena = a[3*n:]
	return d.raw[id]
}

// finish equilibrates the filled raw column id the way
// mat.LeastSquaresWorkspace.Solve does and, once the intercept's reflector
// exists, reduces it.
func (d *designColumns) finish(id int) {
	raw, eq := d.raw[id], d.eq[id]
	norm := mat.Norm(raw)
	d.norm[id] = norm
	if norm == 0 {
		return
	}
	for i, v := range raw {
		eq[i] = v / norm
	}
	copy(d.reduced[id], eq)
	if id > 0 {
		d.h.Apply(d.reduced[id])
	}
}

// column returns the id of the design column of a term, building the
// column on first use: the elementwise product of the term's non-constant
// factors in ascending parameter order, starting from the first factor (the
// same products as accumulating from 1.0, since 1.0*x == x).
func (c *combiner) column(block []int) int {
	id := 0
	for _, l := range block {
		id += c.place[l][c.sel[l]]
	}
	d := c.design
	if d.raw[id] != nil {
		return id
	}
	col := d.alloc(id, c.n)
	started := false
	for _, l := range block {
		f := c.place[l][c.sel[l]]
		switch {
		case f == 0: // a constant factor
		case !started:
			copy(col, d.raw[f])
			started = true
		default:
			for i, v := range d.raw[f] {
				col[i] *= v
			}
		}
	}
	d.finish(id)
	return id
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
	d := c.design
	for j := 0; j < p; j++ {
		id := 0
		if j > 0 {
			id = c.column(terms[j-1])
		}
		if d.norm[id] == 0 {
			return nil, 0, false
		}
		ws.raw[j], ws.eq[j], ws.reduced[j], ws.scale[j] = d.raw[id], d.eq[id], d.reduced[id], d.norm[id]
	}
	coef, err := ws.ls.SolveFrom(1, ws.reduced, ws.scale, d.y)
	if err != nil {
		return nil, 0, false
	}
	// The in-sample predictions, each summed in mat.MulVecTo's order.
	for i := range ws.fits {
		ws.fits[i] = 0
	}
	for j, col := range ws.raw {
		for i, v := range col {
			ws.fits[i] += v * coef[j]
		}
	}
	ws.looPredictions(ws.eq, c.values)
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
