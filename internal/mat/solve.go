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

// LeastSquaresWorkspace holds the scratch of a rows×cols least-squares
// solve, so repeated solves of that shape allocate nothing.
type LeastSquaresWorkspace struct {
	eq       *Matrix   // column-equilibrated copy of A
	r        *Matrix   // copy of eq, reduced to R in place
	y        []float64 // copy of b, reduced to Q^T b in place
	colScale []float64 // column norms of A
	v        []float64 // Householder vector
	x        []float64 // solution
}

// NewLeastSquaresWorkspace returns a workspace for rows×cols systems.
func NewLeastSquaresWorkspace(rows, cols int) *LeastSquaresWorkspace {
	return &LeastSquaresWorkspace{
		eq:       New(rows, cols),
		r:        New(rows, cols),
		y:        make([]float64, rows),
		colScale: make([]float64, cols),
		v:        make([]float64, rows),
		x:        make([]float64, cols),
	}
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
	if a.rows != w.r.rows || a.cols != w.r.cols {
		return nil, fmt.Errorf("mat: LeastSquares workspace is %dx%d, system is %dx%d",
			w.r.rows, w.r.cols, a.rows, a.cols)
	}
	m, n := a.rows, a.cols
	eq, r, y, colScale, v, x := w.eq, w.r, w.y, w.colScale, w.v, w.x
	copy(eq.data, a.data)
	copy(y, b)

	// Column equilibration: PMNF design matrices mix an intercept column of
	// ones with term columns spanning many orders of magnitude. Scaling each
	// column to unit norm makes the rank test meaningful and the solve
	// accurate; the solution is unscaled at the end.
	for j := 0; j < n; j++ {
		norm := 0.0
		for i := 0; i < m; i++ {
			norm = math.Hypot(norm, eq.data[i*n+j])
		}
		if norm == 0 {
			return nil, ErrSingular
		}
		colScale[j] = norm
		for i := 0; i < m; i++ {
			eq.data[i*n+j] /= norm
		}
	}
	copy(r.data, eq.data)

	// Householder QR: for each column k build the reflector that zeroes the
	// subdiagonal, apply it to the trailing columns and to the rhs.
	for k := 0; k < n; k++ {
		// Column norm below the diagonal.
		norm := 0.0
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, r.data[i*n+k])
		}
		if norm == 0 {
			return nil, ErrSingular
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
			return nil, ErrSingular
		}
		// Apply H = I - 2 v v^T / (v^T v) to R[k:, k:] and y[k:].
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

	// Back substitution on the upper-triangular n×n block. A diagonal entry
	// tiny relative to the largest one signals numerical rank deficiency.
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
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	for i := range x {
		x[i] /= colScale[i]
		if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
			return nil, ErrSingular
		}
	}
	return x, nil
}

// Equilibrated returns the copy of A from the last successful Solve with
// each column scaled to unit Euclidean norm (accumulated with math.Hypot,
// then divided). It belongs to the workspace and is overwritten by the next
// Solve.
func (w *LeastSquaresWorkspace) Equilibrated() *Matrix { return w.eq }

// SolveCholesky solves the symmetric positive-definite system A x = b via
// Cholesky factorization. It is used for normal-equation solves where the
// Gram matrix is known to be SPD.
func SolveCholesky(a *Matrix, b []float64) ([]float64, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: SolveCholesky needs square matrix, got %dx%d", a.rows, a.cols)
	}
	if a.rows != len(b) {
		return nil, fmt.Errorf("mat: SolveCholesky shape mismatch: %d vs %d", a.rows, len(b))
	}
	n := a.rows
	l := New(n, n)
	if err := CholeskyTo(l, a); err != nil {
		return nil, err
	}
	x := make([]float64, n)
	CholeskySolveTo(x, make([]float64, n), l, b)
	return x, nil
}

// CholeskyTo writes the lower Cholesky factor L (A = L L^T) of the
// symmetric positive-definite n×n matrix a into l, allocation-free. Only the
// lower triangle of l is meaningful. ErrSingular reports a matrix that is not
// numerically positive definite.
func CholeskyTo(l, a *Matrix) error {
	n := a.rows
	if a.cols != n || l.rows != n || l.cols != n {
		panic(fmt.Sprintf("mat: CholeskyTo needs square %dx%d operands, got %dx%d into %dx%d",
			n, n, a.rows, a.cols, l.rows, l.cols))
	}
	copy(l.data, a.data)
	// In-place lower Cholesky.
	for j := 0; j < n; j++ {
		d := l.data[j*n+j]
		for k := 0; k < j; k++ {
			d -= l.data[j*n+k] * l.data[j*n+k]
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrSingular
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
	return nil
}

// CholeskySolveTo solves L L^T x = b for the factor l from CholeskyTo,
// writing x into dst and using z (length n) as scratch. Solving one system
// after CholeskyTo is exactly the arithmetic of SolveCholesky.
func CholeskySolveTo(dst, z []float64, l *Matrix, b []float64) {
	n := l.rows
	// Forward solve L z = b.
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.data[i*n+k] * z[k]
		}
		z[i] = s / l.data[i*n+i]
	}
	// Backward solve L^T x = z.
	for i := n - 1; i >= 0; i-- {
		s := z[i]
		for k := i + 1; k < n; k++ {
			s -= l.data[k*n+i] * dst[k]
		}
		dst[i] = s / l.data[i*n+i]
	}
}

// Gram returns A^T A, the (cols×cols) Gram matrix of A.
func Gram(a *Matrix) *Matrix {
	g := New(a.cols, a.cols)
	GramTo(g, a)
	return g
}

// GramTo computes A^T A into g (cols×cols), allocation-free. g is zeroed
// first; the accumulation order matches Gram exactly, so results are
// bit-identical.
func GramTo(g *Matrix, a *Matrix) {
	n := a.cols
	if g.rows != n || g.cols != n {
		panic(fmt.Sprintf("mat: GramTo needs %dx%d dst, got %dx%d", n, n, g.rows, g.cols))
	}
	for i := range g.data {
		g.data[i] = 0
	}
	for i := 0; i < a.rows; i++ {
		ri := a.data[i*n : (i+1)*n]
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
}
