package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a solve encounters a (numerically) singular
// system.
var ErrSingular = errors.New("mat: singular system")

// LeastSquares solves min_x ||A x - b||_2 for a full-column-rank A using
// Householder QR, which is numerically stable for the small, possibly
// ill-conditioned design matrices produced by PMNF hypothesis fitting.
// A is rows×cols with rows >= cols, b has length rows.
// The returned slice has length cols.
//
// LeastSquares allocates its scratch per call; a caller solving many systems
// of one shape uses a LeastSquaresWorkspace, which runs the same arithmetic.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	return NewLeastSquaresWorkspace(a.rows, a.cols).Solve(a, b)
}

// Norm returns the Euclidean norm of x, guarded the way LAPACK's dnrm2 is:
// it finds the largest magnitude first and sums the squares of the entries
// scaled by the power of two that brings it into [0.5, 1), so no square
// overflows and none that matters underflows. Scaling by a power of two is
// exact, so within the range where plain squares are safe the result is
// bit for bit the plain sum of squares' square root.
func Norm(x []float64) float64 {
	amax := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > amax {
			amax = a
		}
	}
	if amax == 0 || math.IsInf(amax, 1) {
		return amax
	}
	_, e := math.Frexp(amax)
	// Clamped so that the scale and its effect stay normal numbers.
	scale := math.Ldexp(1, min(max(-e, -1022), 1023))
	ss := 0.0
	for _, v := range x {
		t := v * scale
		ss += t * t
	}
	return math.Sqrt(ss) / scale
}

// Reflector is the Householder reflector H = I - 2 v vᵀ / (vᵀ v) of QR
// step k: it leaves the rows above k of a column alone and zeroes the rows
// below k of the column it was built from.
type Reflector struct {
	k  int
	v  []float64 // v[k:] is the Householder vector
	vv float64   // vᵀ v
}

// NewReflector returns a reflector for columns of length rows.
func NewReflector(rows int) *Reflector {
	return &Reflector{v: make([]float64, rows)}
}

// Reduce makes h the reflector that maps x[k:] onto a multiple of the k-th
// unit vector. It reports false when x[k:] is zero, so no reflector exists.
func (h *Reflector) Reduce(x []float64, k int) bool {
	norm := Norm(x[k:])
	if norm == 0 {
		return false
	}
	alpha := -math.Copysign(norm, x[k])
	v, vv := h.v, 0.0
	for i := k; i < len(x); i++ {
		v[i] = x[i]
		if i == k {
			v[i] -= alpha
		}
		vv += v[i] * v[i]
	}
	if vv == 0 {
		return false
	}
	h.k, h.vv = k, vv
	return true
}

// Apply overwrites x with H x.
func (h *Reflector) Apply(x []float64) {
	v, k := h.v, h.k
	f := 2 * Dot(v[k:], x[k:]) / h.vv
	for i := k; i < len(x); i++ {
		x[i] -= f * v[i]
	}
}

// LeastSquaresWorkspace holds the scratch of a rows×cols least-squares
// solve, so repeated solves of that shape allocate nothing. It keeps its
// matrices as slices of columns, the order in which QR reads them.
type LeastSquaresWorkspace struct {
	m, n  int
	eq    [][]float64 // Solve's column-equilibrated copy of A, made by its first call
	r     [][]float64 // the design being reduced to R in place, by column
	y     []float64   // copy of b, reduced to Qᵀ b in place
	scale []float64   // column norms of A
	h     *Reflector
	x     []float64   // solution
	z     [][]float64 // Leverages' scratch, by column
}

// NewLeastSquaresWorkspace returns a workspace for rows×cols systems.
func NewLeastSquaresWorkspace(rows, cols int) *LeastSquaresWorkspace {
	data := make([]float64, (2*cols+1)*rows+2*cols)
	next := func(n int) []float64 {
		s := data[:n:n]
		data = data[n:]
		return s
	}
	w := &LeastSquaresWorkspace{
		m:     rows,
		n:     cols,
		r:     make([][]float64, cols),
		h:     NewReflector(rows),
		y:     next(rows),
		scale: next(cols),
		x:     next(cols),
		z:     make([][]float64, cols),
	}
	for j := range w.r {
		w.r[j], w.z[j] = next(rows), next(rows)
	}
	return w
}

// Solve is LeastSquares on the workspace's buffers. A must have the
// workspace's shape. The returned slice belongs to the workspace and is
// overwritten by the next Solve.
func (w *LeastSquaresWorkspace) Solve(a *Matrix, b []float64) ([]float64, error) {
	if a.rows != len(b) {
		return nil, fmt.Errorf("mat: LeastSquares shape mismatch: %d rows vs %d rhs", a.rows, len(b))
	}
	if a.rows < a.cols {
		return nil, fmt.Errorf("mat: LeastSquares underdetermined: %dx%d", a.rows, a.cols)
	}
	if a.rows != w.m || a.cols != w.n {
		return nil, fmt.Errorf("mat: LeastSquares workspace is %dx%d, system is %dx%d",
			w.m, w.n, a.rows, a.cols)
	}
	if w.eq == nil {
		data := make([]float64, w.m*w.n)
		w.eq = make([][]float64, w.n)
		for j := range w.eq {
			w.eq[j] = data[j*w.m : (j+1)*w.m : (j+1)*w.m]
		}
	}
	// Column equilibration: PMNF design matrices mix an intercept column of
	// ones with term columns spanning many orders of magnitude. Scaling each
	// column to unit norm makes the rank test meaningful and the solve
	// accurate; the solution is unscaled at the end.
	for j, col := range w.eq {
		for i := range col {
			col[i] = a.data[i*a.cols+j]
		}
		norm := Norm(col)
		if norm == 0 {
			return nil, ErrSingular
		}
		w.scale[j] = norm
		for i := range col {
			col[i] /= norm
		}
	}
	return w.SolveFrom(0, w.eq, w.scale, b)
}

// SolveFrom finishes a least-squares solve whose first k Householder steps
// were taken elsewhere: cols are the columns of the equilibrated design and
// y the right-hand side, both already multiplied by those k reflectors, and
// scale holds the norms that equilibrated the columns. A caller fitting many
// designs that share their leading columns takes those steps once for all
// of them. SolveFrom copies its inputs, which must have the workspace's
// shape; Solve is SolveFrom(0, …) on the equilibrated A. The returned slice
// belongs to the workspace.
func (w *LeastSquaresWorkspace) SolveFrom(k int, cols [][]float64, scale, y []float64) ([]float64, error) {
	n, r, x := w.n, w.r, w.x
	for j, col := range cols {
		copy(r[j], col)
	}
	copy(w.y, y)

	// Householder QR: for each column k build the reflector that zeroes the
	// subdiagonal, apply it to the trailing columns and to the rhs.
	for ; k < n; k++ {
		if !w.h.Reduce(r[k], k) {
			return nil, ErrSingular
		}
		for j := k; j < n; j++ {
			w.h.Apply(r[j])
		}
		w.h.Apply(w.y)
	}

	// Back substitution on the upper-triangular n×n block. A diagonal entry
	// tiny relative to the largest one signals numerical rank deficiency.
	maxDiag := 0.0
	for i := 0; i < n; i++ {
		if d := math.Abs(r[i][i]); d > maxDiag {
			maxDiag = d
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := w.y[i]
		for j := i + 1; j < n; j++ {
			s -= r[j][i] * x[j]
		}
		d := r[i][i]
		if math.Abs(d) <= 1e-12*maxDiag {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	for i := range x {
		x[i] /= scale[i]
		if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
			return nil, ErrSingular
		}
	}
	return x, nil
}

// Equilibrated returns the columns of A from the last successful Solve, each
// divided by its Norm. They belong to the workspace and are overwritten by
// the next Solve.
func (w *LeastSquaresWorkspace) Equilibrated() [][]float64 { return w.eq }

// Leverages writes into h the diagonal of the hat matrix A (AᵀA)⁻¹ Aᵀ of the
// design of the last successful solve, whose equilibrated columns are eq.
// With A's column-equilibrated form E = Q R, h[i] = ‖zᵢ‖² for the solution
// zᵢ of Rᵀ zᵢ = eᵢ, eᵢ the i-th row of E: column scaling leaves the hat
// matrix unchanged, and R is the triangle the solve already built, so no
// Gram matrix is formed. The triangular solves of all rows run side by side,
// one column of Z = R⁻ᵀ Eᵀ at a time. h has one entry per row.
func (w *LeastSquaresWorkspace) Leverages(h []float64, eq [][]float64) {
	r, z := w.r, w.z
	for i := range h {
		h[i] = 0
	}
	for j, rj := range r {
		zj, d := z[j], rj[j]
		for i := range h {
			s := eq[j][i]
			for k := 0; k < j; k++ {
				s -= rj[k] * z[k][i]
			}
			zj[i] = s / d
			h[i] += zj[i] * zj[i]
		}
	}
}
