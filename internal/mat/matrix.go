// Package mat provides the dense linear algebra needed by the performance
// modelers and the neural-network library: matrices backed by contiguous
// float32 or float64 storage, basic BLAS-like kernels with optional goroutine
// parallelism, and least-squares solvers (QR and normal equations).
//
// The package is deliberately small: it implements exactly what the rest of
// the module needs, with predictable memory behavior (no hidden aliasing,
// explicit Clone), rather than a general numerical toolkit.
//
// Dense[T] and its kernels are generic over the element width. Matrix, the
// float64 instantiation, is the bit-pinned reference every modeler uses;
// Dense[float32] is the opt-in fast path of the neural-network engine (see
// DESIGN.md §11).
//
// The matmul family — MulTo and the fused transpose-free kernels MulATTo
// (aᵀ·b) and MulBTTo (a·bᵀ) — shares one accumulation order (chunks of four,
// then single leftovers) so the fused kernels are bit-identical to MulTo on
// an explicitly transposed operand, and one parallelism policy: products
// above parallelThreshold multiply-adds split their output rows across
// GOMAXPROCS goroutines (disjoint writes, no locks), smaller ones run
// serially without allocating. On amd64 hosts with AVX2+FMA the float32
// MulTo and MulATTo dispatch to assembly, which only promises tolerance
// parity. See DESIGN.md §6 and docs/PERFORMANCE.md.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Float is the element-type constraint of Dense and its kernels.
type Float interface {
	~float32 | ~float64
}

// Dense is a dense, row-major matrix of float32 or float64 values.
// The zero value is an empty 0x0 matrix.
type Dense[T Float] struct {
	rows, cols int
	data       []T
}

// Matrix is the float64 matrix every modeler computes with.
type Matrix = Dense[float64]

// NewDense returns a rows×cols matrix of zeros.
// It panics if either dimension is negative.
func NewDense[T Float](rows, cols int) *Dense[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Dense[T]{rows: rows, cols: cols, data: make([]T, rows*cols)}
}

// New returns a rows×cols matrix of zeros.
// It panics if either dimension is negative.
func New(rows, cols int) *Matrix { return NewDense[float64](rows, cols) }

// NewFromData wraps data as a rows×cols matrix without copying.
// It panics if len(data) != rows*cols.
func NewFromData[T Float](rows, cols int, data []T) *Dense[T] {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Dense[T]{rows: rows, cols: cols, data: data}
}

// NewFromRows builds a matrix from a slice of equally long rows, copying them.
func NewFromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("mat: ragged rows: row %d has %d values, want %d", i, len(r), c))
		}
		copy(m.data[i*c:(i+1)*c], r)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense[T]) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense[T]) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense[T]) At(i, j int) T {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set stores v at row i, column j.
func (m *Dense[T]) Set(i, j int, v T) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense[T]) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice aliasing the matrix storage.
// Mutating the returned slice mutates the matrix.
func (m *Dense[T]) Row(i int) []T {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Data returns the underlying row-major storage, aliased.
func (m *Dense[T]) Data() []T { return m.data }

// Clone returns a deep copy of m.
func (m *Dense[T]) Clone() *Dense[T] {
	c := NewDense[T](m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// T returns a newly allocated transpose of m.
func (m *Dense[T]) T() *Dense[T] {
	t := NewDense[T](m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		ri := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range ri {
			t.data[j*m.rows+i] = v
		}
	}
	return t
}

// Scale multiplies every element of m by s, in place.
func (m *Dense[T]) Scale(s T) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// AddScaled adds s*b to m element-wise, in place. The shapes must match.
func (m *Dense[T]) AddScaled(s T, b *Dense[T]) {
	m.sameShape(b)
	for i, v := range b.data {
		m.data[i] += s * v
	}
}

func (m *Dense[T]) sameShape(b *Dense[T]) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: shape mismatch %dx%d vs %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
}

// Equal reports whether m and b have the same shape and all elements are
// within tol of each other.
func (m *Dense[T]) Equal(b *Dense[T], tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(float64(v-b.data[i])) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Dense[T]) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%dx%d[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			sb.WriteString("; ")
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.4g", m.data[i*m.cols+j])
		}
	}
	sb.WriteByte(']')
	return sb.String()
}

// Convert copies src into dst element-wise, converting between element
// widths. The shapes must match.
func Convert[D, S Float](dst *Dense[D], src *Dense[S]) {
	if dst.rows != src.rows || dst.cols != src.cols {
		panic(fmt.Sprintf("mat: Convert shape mismatch %dx%d vs %dx%d", dst.rows, dst.cols, src.rows, src.cols))
	}
	for i, v := range src.data {
		dst.data[i] = D(v)
	}
}
