package pmnf

import (
	"fmt"
	"math"
	"strings"
)

// Term is one summand of a PMNF model: a coefficient multiplied by one factor
// per parameter. Exps[l] holds the exponents applied to parameter l; a
// constant pair (0,0) means the parameter does not appear in the term.
type Term struct {
	Coefficient float64
	Exps        []Exponents
}

// Eval evaluates the term at parameter values x (len(x) == len(t.Exps)).
func (t Term) Eval(x []float64) float64 {
	if len(x) != len(t.Exps) {
		panic(fmt.Sprintf("pmnf: Term.Eval got %d values for %d parameters", len(x), len(t.Exps)))
	}
	v := t.Coefficient
	for l, e := range t.Exps {
		if !e.IsConstant() {
			v *= e.Eval(x[l])
		}
	}
	return v
}

// Model is a PMNF performance model: a constant plus a sum of terms.
// All terms must agree on the number of parameters.
type Model struct {
	Constant   float64
	Terms      []Term
	ParamNames []string // optional display names; defaults to x1..xm
}

// NumParams returns the number of model parameters, inferred from the first
// term (0 for a purely constant model with no terms).
func (m Model) NumParams() int {
	if len(m.Terms) == 0 {
		return len(m.ParamNames)
	}
	return len(m.Terms[0].Exps)
}

// Eval evaluates the model at parameter values x.
func (m Model) Eval(x []float64) float64 {
	v := m.Constant
	for _, t := range m.Terms {
		v += t.Eval(x)
	}
	return v
}

// paramName returns the display name for parameter l.
func (m Model) paramName(l int) string {
	if l < len(m.ParamNames) && m.ParamNames[l] != "" {
		return m.ParamNames[l]
	}
	return fmt.Sprintf("x%d", l+1)
}

// String renders the model in the human-readable form the paper reports,
// e.g. "8.51 + 0.11*x1^(1/3)*x2*x3^(4/5)".
func (m Model) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%.4g", m.Constant)
	for _, t := range m.Terms {
		coeff := t.Coefficient
		if coeff < 0 {
			sb.WriteString(" - ")
			coeff = -coeff
		} else {
			sb.WriteString(" + ")
		}
		fmt.Fprintf(&sb, "%.4g", coeff)
		for l, e := range t.Exps {
			if e.IsConstant() {
				continue
			}
			sb.WriteByte('*')
			sb.WriteString(e.FactorString(m.paramName(l)))
		}
	}
	return sb.String()
}

// LeadExponents returns, per parameter, the exponents of the term with the
// greatest asymptotic impact on that parameter (lexicographic max of (I, J)
// over all terms using the parameter). Parameters absent from every term get
// the constant pair (0, 0).
func (m Model) LeadExponents() []Exponents {
	n := m.NumParams()
	lead := make([]Exponents, n)
	for _, t := range m.Terms {
		for l := 0; l < n && l < len(t.Exps); l++ {
			e := t.Exps[l]
			if e.I > lead[l].I || (e.I == lead[l].I && e.J > lead[l].J) {
				lead[l] = e
			}
		}
	}
	return lead
}

// LeadDistance returns the largest per-parameter distance between the lead
// exponents of two models over the same parameters. Smaller is better; the
// accuracy buckets of the evaluation test d <= 1/4, 1/3 and 1/2.
// It returns +Inf when the models disagree on the parameter count.
func LeadDistance(a, b Model) float64 {
	la, lb := a.LeadExponents(), b.LeadExponents()
	if len(la) != len(lb) {
		return math.Inf(1)
	}
	d := 0.0
	for l := range la {
		if dd := Distance(la[l], lb[l]); dd > d {
			d = dd
		}
	}
	return d
}
