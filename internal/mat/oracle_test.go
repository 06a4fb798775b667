package mat

// An accuracy oracle for the least-squares fit and its leave-one-out score.
// The bit-identity pins in internal/regression hold the fast paths to the
// code they replaced, which says nothing about how accurate either is. Here
// every fit is compared with the exact answer for the same float64 inputs,
// computed in 256-bit math/big arithmetic: the coefficients, the hat values
// and the leave-one-out SMAPE. The arithmetic the package shipped before the
// current one (math.Hypot norms, hat values through a Cholesky-inverted Gram
// matrix) is kept below as headFit, so every run measures both.

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"extrapdnn/internal/stats"
)

const oraclePrec = 256

// fitErrors are the worst relative errors of a family of fits against the
// oracle.
type fitErrors struct {
	coef  float64 // ‖D(x−X)‖/‖DX‖, D the column norms of A
	hat   float64 // max over rows of |h−H|/H
	smape float64 // |s−S|/S of the leave-one-out SMAPE
}

func (e *fitErrors) max(o fitErrors) {
	e.coef = math.Max(e.coef, o.coef)
	e.hat = math.Max(e.hat, o.hat)
	e.smape = math.Max(e.smape, o.smape)
}

// oracleWorst is the committed measurement: the worst relative errors of
// the previous arithmetic (head) and of the current one (now) on each
// family, over the designs both fit, as TestFitOracle logs them with -v.
// The previous arithmetic's hat values are off by up to 3,170% on
// near-collinear designs and its LOO SMAPE by up to 45% (collinear) and 41%
// (wide-range); the current one keeps them within 2.5e-4 and 6.4e-5. On
// the well-conditioned random designs both stay below oracleFloor.
var oracleWorst = map[string]struct{ head, now fitErrors }{
	"random":     {head: fitErrors{3.31e-15, 2.91e-15, 2.63e-15}, now: fitErrors{4.25e-15, 1.17e-14, 6.66e-15}},
	"collinear":  {head: fitErrors{1.19e-03, 3.17e+01, 4.51e-01}, now: fitErrors{6.22e-04, 2.47e-04, 6.41e-05}},
	"wide-range": {head: fitErrors{5.28e-13, 1.37e-09, 4.10e-01}, now: fitErrors{2.10e-13, 5.91e-13, 6.08e-12}},
	"extreme":    {head: fitErrors{2.12e-13, 3.08e-12, 1.61e-11}, now: fitErrors{1.68e-13, 2.43e-14, 9.98e-14}},
}

// oracleCase is one design A and right-hand side b.
type oracleCase struct {
	a *Matrix
	b []float64
}

// oracleFamilies draws the designs: each has an intercept column, like
// every PMNF hypothesis, and n ≤ 125 rows for p ≤ 4 columns.
func oracleFamilies() map[string][]oracleCase {
	rng := rand.New(rand.NewSource(2021))
	fam := map[string][]oracleCase{}
	// values are positive measurements, as in a performance profile.
	values := func(n int, scale float64) []float64 {
		b := make([]float64, n)
		for i := range b {
			b[i] = scale * (1 + 100*rng.Float64())
		}
		return b
	}
	design := func(xs []float64, term func(x float64, t int) float64, p int) *Matrix {
		a := New(len(xs), p)
		for i, x := range xs {
			a.Set(i, 0, 1)
			for t := 1; t < p; t++ {
				a.Set(i, t, term(x, t))
			}
		}
		return a
	}
	pmnf := func(x, i, j float64) float64 { return math.Pow(x, i) * math.Pow(math.Log2(x), j) }

	// Random designs: Gaussian columns whose scales differ by up to six
	// orders of magnitude.
	for c := 0; c < 300; c++ {
		p := 1 + rng.Intn(4)
		n := p + 2 + rng.Intn(124-p)
		scales := []float64{1, math.Pow(10, 6*rng.Float64()-3), math.Pow(10, 6*rng.Float64()-3), math.Pow(10, 6*rng.Float64()-3)}
		a := New(n, p)
		for i := 0; i < n; i++ {
			a.Set(i, 0, 1)
			for j := 1; j < p; j++ {
				a.Set(i, j, scales[j]*rng.NormFloat64())
			}
		}
		fam["random"] = append(fam["random"], oracleCase{a, values(n, 1)})
	}
	// Near-collinear columns: x³ against x³·log₂²x (and x³·log₂x) over a
	// narrow range of x, where log₂x barely changes.
	for c := 0; c < 200; c++ {
		n := 5 + rng.Intn(40)
		x0 := math.Pow(10, 1+4*rng.Float64())
		span := 1 + math.Pow(10, -3*rng.Float64())
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = x0 * math.Pow(span, float64(i)/float64(n-1))
		}
		p := 3 + rng.Intn(2)
		js := []float64{0, 0, 2, 1}
		a := design(xs, func(x float64, t int) float64 { return pmnf(x, 3, js[t]) }, p)
		fam["collinear"] = append(fam["collinear"], oracleCase{a, values(n, 1)})
	}
	// Coordinates from 1e-5 to 1e6 under PMNF terms x^i·log₂^j x.
	for c := 0; c < 200; c++ {
		n := 5 + rng.Intn(60)
		lo := -5 + 8*rng.Float64()
		hi := lo + 1 + (6-lo-1)*rng.Float64()
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Pow(10, lo+(hi-lo)*float64(i)/float64(n-1))
		}
		p := 2 + rng.Intn(3)
		is, js := make([]float64, p), make([]float64, p)
		for t := 1; t < p; t++ {
			is[t], js[t] = float64(rng.Intn(13))/4, float64(rng.Intn(3))
		}
		a := design(xs, func(x float64, t int) float64 { return pmnf(x, is[t], js[t]) }, p)
		fam["wide-range"] = append(fam["wide-range"], oracleCase{a, values(n, 1)})
	}
	// Values and term columns near the float64 range limits: values scaled
	// by 2^±1000 (about 1e±301), term columns by 2^±500.
	for c := 0; c < 200; c++ {
		n := 5 + rng.Intn(60)
		p := 2 + rng.Intn(3)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 2 + 1000*rng.Float64()
		}
		// The signs agree, so that the coefficients, about 2^±500, are
		// representable.
		sign := []int{-1, 1}[rng.Intn(2)]
		colScale := math.Ldexp(1, 500*sign)
		a := design(xs, func(x float64, t int) float64 { return colScale * pmnf(x, float64(t), 0) }, p)
		fam["extreme"] = append(fam["extreme"], oracleCase{a, values(n, math.Ldexp(1, 1000*sign))})
	}
	return fam
}

// fitResult is one arithmetic's fit: coefficients, hat values and LOO SMAPE.
type fitResult struct {
	x, h  []float64
	smape float64
}

// looSMAPE scores a fit by the hat-matrix leave-one-out identity, with the
// regression package's fallback for a point that determines its own fit.
func looSMAPE(a *Matrix, b, x, h []float64) float64 {
	fits := MulVec(a, x)
	loo := make([]float64, len(b))
	for i := range b {
		den := 1 - h[i]
		if den < 1e-10 {
			loo[i] = fits[i]
			continue
		}
		loo[i] = b[i] - (b[i]-fits[i])/den
	}
	return stats.SMAPE(loo, b)
}

// nowFit is the current arithmetic: the workspace solve and Leverages.
func nowFit(a *Matrix, b []float64) (fitResult, bool) {
	w := NewLeastSquaresWorkspace(a.rows, a.cols)
	x, err := w.Solve(a, b)
	if err != nil {
		return fitResult{}, false
	}
	h := make([]float64, a.rows)
	w.Leverages(h, w.Equilibrated())
	return fitResult{append([]float64(nil), x...), h, looSMAPE(a, b, x, h)}, true
}

// headFit is the previous arithmetic, kept verbatim: a Householder QR whose
// equilibration and reflector norms accumulate with math.Hypot, and hat
// values a_iᵀ G⁻¹ a_i of the equilibrated design from the inverse of its
// Gram matrix G, found by one Cholesky factor and a solve per unit column.
func headFit(a *Matrix, b []float64) (fitResult, bool) {
	m, n := a.rows, a.cols
	eq, r := a.Clone(), New(m, n)
	y, colScale, v, x := append([]float64(nil), b...), make([]float64, n), make([]float64, m), make([]float64, n)
	for j := 0; j < n; j++ {
		norm := 0.0
		for i := 0; i < m; i++ {
			norm = math.Hypot(norm, eq.data[i*n+j])
		}
		if norm == 0 {
			return fitResult{}, false
		}
		colScale[j] = norm
		for i := 0; i < m; i++ {
			eq.data[i*n+j] /= norm
		}
	}
	copy(r.data, eq.data)
	for k := 0; k < n; k++ {
		norm := 0.0
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, r.data[i*n+k])
		}
		if norm == 0 {
			return fitResult{}, false
		}
		alpha := -math.Copysign(norm, r.data[k*n+k])
		vnorm2 := 0.0
		for i := k; i < m; i++ {
			v[i] = r.data[i*n+k]
			if i == k {
				v[i] -= alpha
			}
			vnorm2 += v[i] * v[i]
		}
		if vnorm2 == 0 {
			return fitResult{}, false
		}
		for j := k; j < n; j++ {
			dot := 0.0
			for i := k; i < m; i++ {
				dot += v[i] * r.data[i*n+j]
			}
			f := 2 * dot / vnorm2
			for i := k; i < m; i++ {
				r.data[i*n+j] -= f * v[i]
			}
		}
		dot := 0.0
		for i := k; i < m; i++ {
			dot += v[i] * y[i]
		}
		f := 2 * dot / vnorm2
		for i := k; i < m; i++ {
			y[i] -= f * v[i]
		}
	}
	maxDiag := 0.0
	for i := 0; i < n; i++ {
		if d := math.Abs(r.data[i*n+i]); d > maxDiag {
			maxDiag = d
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= r.data[i*n+j] * x[j]
		}
		d := r.data[i*n+i]
		if math.Abs(d) <= 1e-12*maxDiag {
			return fitResult{}, false
		}
		x[i] = s / d
	}
	for i := range x {
		x[i] /= colScale[i]
		if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
			return fitResult{}, false
		}
	}

	// Gram matrix of the equilibrated design, its Cholesky factor, and the
	// inverse column by column.
	g, l, inv := New(n, n), New(n, n), New(n, n)
	for i := 0; i < m; i++ {
		ri := eq.data[i*n : (i+1)*n]
		for p, vp := range ri {
			if vp == 0 {
				continue
			}
			gp := g.data[p*n : (p+1)*n]
			for q, vq := range ri {
				gp[q] += vp * vq
			}
		}
	}
	copy(l.data, g.data)
	for j := 0; j < n; j++ {
		d := l.data[j*n+j]
		for k := 0; k < j; k++ {
			d -= l.data[j*n+k] * l.data[j*n+k]
		}
		if d <= 0 || math.IsNaN(d) {
			return fitResult{}, false
		}
		d = math.Sqrt(d)
		l.data[j*n+j] = d
		for i := j + 1; i < n; i++ {
			s := l.data[i*n+j]
			for k := 0; k < j; k++ {
				s -= l.data[i*n+k] * l.data[j*n+k]
			}
			l.data[i*n+j] = s / d
		}
	}
	unit, col, z := make([]float64, n), make([]float64, n), make([]float64, n)
	for j := 0; j < n; j++ {
		unit[j] = 1
		for i := 0; i < n; i++ {
			s := unit[i]
			for k := 0; k < i; k++ {
				s -= l.data[i*n+k] * z[k]
			}
			z[i] = s / l.data[i*n+i]
		}
		for i := n - 1; i >= 0; i-- {
			s := z[i]
			for k := i + 1; k < n; k++ {
				s -= l.data[k*n+i] * col[k]
			}
			col[i] = s / l.data[i*n+i]
		}
		unit[j] = 0
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	h := make([]float64, m)
	for i := 0; i < m; i++ {
		ai := eq.Row(i)
		h[i] = Dot(ai, MulVec(inv, ai))
	}
	return fitResult{x, h, looSMAPE(a, b, x, h)}, true
}

// bigFit is the oracle: the exact least-squares solution, hat values and
// leave-one-out SMAPE of the float64 inputs, to 256 bits. It equilibrates
// the columns, solves the normal equations and inverts the Gram matrix by
// Gauss–Jordan elimination with partial pivoting; at 256 bits the squared
// condition number of these designs costs nothing visible at float64
// precision. It also returns the column norms.
func bigFit(a *Matrix, b []float64) (x, h []*big.Float, smape *big.Float, norms []*big.Float) {
	m, n := a.rows, a.cols
	nf := func() *big.Float { return new(big.Float).SetPrec(oraclePrec) }
	fl := func(v float64) *big.Float { return nf().SetFloat64(v) }
	e := make([][]*big.Float, m) // equilibrated design
	for i := range e {
		e[i] = make([]*big.Float, n)
	}
	norms = make([]*big.Float, n)
	for j := 0; j < n; j++ {
		ss := nf()
		for i := 0; i < m; i++ {
			v := fl(a.At(i, j))
			ss.Add(ss, nf().Mul(v, v))
		}
		norms[j] = nf().Sqrt(ss)
		for i := 0; i < m; i++ {
			e[i][j] = nf().Quo(fl(a.At(i, j)), norms[j])
		}
	}
	// [G | I | Eᵀb], reduced to [I | G⁻¹ | z] with E z = projection of b.
	aug := make([][]*big.Float, n)
	for p := 0; p < n; p++ {
		aug[p] = make([]*big.Float, 2*n+1)
		for q := 0; q < n; q++ {
			s := nf()
			for i := 0; i < m; i++ {
				s.Add(s, nf().Mul(e[i][p], e[i][q]))
			}
			aug[p][q] = s
			aug[p][n+q] = nf()
			if p == q {
				aug[p][n+q] = fl(1)
			}
		}
		s := nf()
		for i := 0; i < m; i++ {
			s.Add(s, nf().Mul(e[i][p], fl(b[i])))
		}
		aug[p][2*n] = s
	}
	for k := 0; k < n; k++ {
		piv := k
		for p := k + 1; p < n; p++ {
			if nf().Abs(aug[p][k]).Cmp(nf().Abs(aug[piv][k])) > 0 {
				piv = p
			}
		}
		aug[k], aug[piv] = aug[piv], aug[k]
		d := nf().Set(aug[k][k])
		for q := range aug[k] {
			aug[k][q].Quo(aug[k][q], d)
		}
		for p := 0; p < n; p++ {
			if p == k || aug[p][k].Sign() == 0 {
				continue
			}
			f := nf().Set(aug[p][k])
			for q := range aug[p] {
				aug[p][q].Sub(aug[p][q], nf().Mul(f, aug[k][q]))
			}
		}
	}
	x = make([]*big.Float, n)
	for j := range x {
		x[j] = nf().Quo(aug[j][2*n], norms[j])
	}
	h = make([]*big.Float, m)
	sum := nf()
	for i := 0; i < m; i++ {
		hi, fit := nf(), nf()
		for p := 0; p < n; p++ {
			t := nf()
			for q := 0; q < n; q++ {
				t.Add(t, nf().Mul(aug[p][n+q], e[i][q]))
			}
			hi.Add(hi, nf().Mul(e[i][p], t))
			fit.Add(fit, nf().Mul(e[i][p], aug[p][2*n]))
		}
		h[i] = hi
		y := fl(b[i])
		pred := fit
		if den := nf().Sub(fl(1), hi); den.Cmp(fl(1e-10)) >= 0 {
			pred = nf().Sub(y, nf().Quo(nf().Sub(y, fit), den))
		}
		num := nf().Abs(nf().Sub(pred, y))
		den := nf().Quo(nf().Add(nf().Abs(y), nf().Abs(pred)), fl(2))
		if den.Sign() != 0 {
			sum.Add(sum, nf().Quo(num, den))
		}
	}
	smape = nf().Quo(nf().Mul(sum, fl(100)), fl(float64(m)))
	return x, h, smape, norms
}

// relErr returns |got−want|/|want|, or |got| when want is zero.
func relErr(got float64, want *big.Float) float64 {
	d := new(big.Float).SetPrec(oraclePrec).Sub(new(big.Float).SetFloat64(got), want)
	if want.Sign() != 0 {
		d.Quo(d, want)
	}
	f, _ := d.Abs(d).Float64()
	return f
}

// errorsOf measures one fit against the oracle.
func errorsOf(f fitResult, x, h []*big.Float, smape *big.Float, norms []*big.Float) fitErrors {
	nf := func() *big.Float { return new(big.Float).SetPrec(oraclePrec) }
	num, den := nf(), nf()
	for j := range x {
		d := nf().Mul(nf().Sub(nf().SetFloat64(f.x[j]), x[j]), norms[j])
		num.Add(num, nf().Mul(d, d))
		w := nf().Mul(x[j], norms[j])
		den.Add(den, nf().Mul(w, w))
	}
	var e fitErrors
	e.coef, _ = nf().Sqrt(nf().Quo(num, den)).Float64()
	for i := range h {
		e.hat = math.Max(e.hat, relErr(f.h[i], h[i]))
	}
	e.smape = relErr(f.smape, smape)
	return e
}

// oracleFloor is γ₁₂₅ = 125u/(1−125u), u = 2⁻⁵³: the rounding bound of a
// 125-term float64 sum, the longest these designs hold. Errors below it are
// working precision; the comparison does not rank them.
const oracleFloor = 125 * 0x1p-53 / (1 - 125*0x1p-53)

// TestFitOracle measures the worst relative errors of the previous and the
// current fit arithmetic against the 256-bit oracle on each family of
// designs, over the designs both fit. Above working precision the current
// arithmetic must be no worse than the previous one, and no worse than
// twice its committed measurement in oracleWorst (twice, so that a compiler
// that fuses multiply-adds does not trip it). The current arithmetic also
// fits some designs the previous one rejected; their worst errors are
// logged, and it must fit every design the previous one fitted.
func TestFitOracle(t *testing.T) {
	families := oracleFamilies()
	for _, name := range []string{"random", "collinear", "wide-range", "extreme"} {
		var head, now, admitted fitErrors
		both, headOnly, nowOnly := 0, 0, 0
		for _, c := range families[name] {
			hf, hok := headFit(c.a, c.b)
			nf, nok := nowFit(c.a, c.b)
			if !hok && !nok {
				continue
			}
			x, h, s, norms := bigFit(c.a, c.b)
			switch {
			case hok && nok:
				both++
				head.max(errorsOf(hf, x, h, s, norms))
				now.max(errorsOf(nf, x, h, s, norms))
			case hok:
				headOnly++
			default:
				nowOnly++
				admitted.max(errorsOf(nf, x, h, s, norms))
			}
		}
		t.Logf("%-10s %3d of %d fitted by both: coef %.2e → %.2e, hat %.2e → %.2e, LOO SMAPE %.2e → %.2e",
			name, both, len(families[name]), head.coef, now.coef, head.hat, now.hat, head.smape, now.smape)
		if nowOnly > 0 {
			t.Logf("%-10s %3d fitted only now: coef %.2e, hat %.2e, LOO SMAPE %.2e",
				name, nowOnly, admitted.coef, admitted.hat, admitted.smape)
		}
		if both < len(families[name])/2 {
			t.Errorf("%s: only %d of %d designs fitted", name, both, len(families[name]))
		}
		if headOnly > 0 {
			t.Errorf("%s: %d designs that the previous arithmetic fitted fail now", name, headOnly)
		}
		want := oracleWorst[name]
		for _, m := range []struct {
			metric              string
			head, now, recorded float64
		}{
			{"coefficient", head.coef, now.coef, want.now.coef},
			{"hat value", head.hat, now.hat, want.now.hat},
			{"LOO SMAPE", head.smape, now.smape, want.now.smape},
		} {
			if m.now > math.Max(m.head, oracleFloor) {
				t.Errorf("%s: %s relative error %.3g exceeds the previous arithmetic's %.3g", name, m.metric, m.now, m.head)
			}
			if m.now > 2*math.Max(m.recorded, oracleFloor) {
				t.Errorf("%s: %s relative error %.3g exceeds twice the recorded %.3g", name, m.metric, m.now, m.recorded)
			}
		}
	}
}
