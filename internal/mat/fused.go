package mat

import "fmt"

// fusedBlock is the row-tile size of the fused kernels: MulATTo sweeps its
// output rows in tiles of this many rows so the accumulated tile stays in
// cache while the kernel streams through the shared dimension, and MulBTTo
// tiles the rows of b so they are reused across output rows. 64 rows of a
// 1500-wide matrix is ~750 KiB of float64 traffic, comfortably inside L2.
const fusedBlock = 64

// MulATTo computes out = aᵀ·b into a preallocated matrix without
// materializing aᵀ: the kernel reads a and b row-major and scatters each row's
// outer-product contribution into the output. It is the backpropagation
// weight-gradient kernel (dW = activationsᵀ·delta). out must be
// a.cols×b.cols and must not alias a or b. Large products are split across
// GOMAXPROCS goroutines by output row, following the same parallelThreshold
// policy as MulTo.
func MulATTo[T Float](out, a, b *Dense[T]) {
	if a.rows != b.rows {
		panic(fmt.Sprintf("mat: MulATTo dimension mismatch %dx%d by %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if out.rows != a.cols || out.cols != b.cols {
		panic(fmt.Sprintf("mat: MulATTo output %dx%d, want %dx%d", out.rows, out.cols, a.cols, b.cols))
	}
	if serialMul(a.cols, a.rows*a.cols*b.cols) {
		mulATRange(out, a, b, 0, a.cols)
		return
	}
	parallelRows(a.cols, func(lo, hi int) {
		mulATRange(out, a, b, lo, hi)
	})
}

// mulATRange computes output rows [lo,hi) of out = aᵀ·b. The shared dimension
// (rows of a and b) is unrolled four-wide with the same accumulation order as
// mulRange, so MulATTo(out, a, b) is bit-identical to MulTo(out, a.T(), b).
// Output rows are processed in fusedBlock tiles so the accumulating tile
// stays cached across the full sweep of the shared dimension. float32
// products take the SIMD path instead when the host has one.
func mulATRange[T Float](out, a, b *Dense[T], lo, hi int) {
	n := b.cols
	ka := a.cols
	rows := a.rows
	if o, ok := any(out).(*Dense[float32]); ok && useFMA && n >= 8 && rows > 0 {
		mulATRangeFMA(o, any(a).(*Dense[float32]), any(b).(*Dense[float32]), lo, hi)
		return
	}
	for k := lo; k < hi; k++ {
		ok := out.data[k*n : k*n+n]
		for j := range ok {
			ok[j] = 0
		}
	}
	for k0 := lo; k0 < hi; k0 += fusedBlock {
		k1 := k0 + fusedBlock
		if k1 > hi {
			k1 = hi
		}
		i := 0
		for ; i+4 <= rows; i += 4 {
			// The [:n] reslices pin every operand row to the output-row
			// length so the inner loops run without bounds checks.
			a0 := a.data[i*ka : i*ka+ka]
			a1 := a.data[(i+1)*ka : (i+1)*ka+ka]
			a2 := a.data[(i+2)*ka : (i+2)*ka+ka]
			a3 := a.data[(i+3)*ka : (i+3)*ka+ka]
			b0 := b.data[i*n : i*n+n][:n]
			b1 := b.data[(i+1)*n : (i+1)*n+n][:n]
			b2 := b.data[(i+2)*n : (i+2)*n+n][:n]
			b3 := b.data[(i+3)*n : (i+3)*n+n][:n]
			for k := k0; k < k1; k++ {
				c0, c1, c2, c3 := a0[k], a1[k], a2[k], a3[k]
				ok := out.data[k*n : k*n+n][:n]
				for j := range ok {
					ok[j] += c0*b0[j] + c1*b1[j] + c2*b2[j] + c3*b3[j]
				}
			}
		}
		for ; i < rows; i++ {
			ai := a.data[i*ka : i*ka+ka]
			bi := b.data[i*n : i*n+n][:n]
			for k := k0; k < k1; k++ {
				aik := ai[k]
				ok := out.data[k*n : k*n+n][:n]
				for j := range ok {
					ok[j] += aik * bi[j]
				}
			}
		}
	}
}

// MulBTTo computes out = a·bᵀ into a preallocated matrix without
// materializing bᵀ: every output element is a dot product of a row of a with
// a row of b, both contiguous in row-major storage. It is the
// backpropagation delta kernel (prevDelta = delta·Wᵀ). out must be
// a.rows×b.rows and must not alias a or b. Large products are split across
// GOMAXPROCS goroutines by output row, following the same parallelThreshold
// policy as MulTo.
func MulBTTo[T Float](out, a, b *Dense[T]) {
	if a.cols != b.cols {
		panic(fmt.Sprintf("mat: MulBTTo dimension mismatch %dx%d by %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if out.rows != a.rows || out.cols != b.rows {
		panic(fmt.Sprintf("mat: MulBTTo output %dx%d, want %dx%d", out.rows, out.cols, a.rows, b.rows))
	}
	if serialMul(a.rows, a.rows*a.cols*b.rows) {
		mulBTRange(out, a, b, 0, a.rows)
		return
	}
	parallelRows(a.rows, func(lo, hi int) {
		mulBTRange(out, a, b, lo, hi)
	})
}

// mulBTRange computes output rows [lo,hi) of out = a·bᵀ as row-by-row dot
// products, tiling the rows of b in fusedBlock chunks so each chunk is reused
// across every output row before eviction. A 1×4 micro-kernel advances four
// output dots together over one row of a: four independent accumulation
// chains instead of one stalled on FP-add latency, and each a element loaded
// once for four products. Every dot still accumulates in chunks of four with
// single-element leftovers — the same order as mulRange — so MulBTTo(out, a,
// b) is bit-identical to MulTo(out, a, b.T()).
func mulBTRange[T Float](out, a, b *Dense[T], lo, hi int) {
	p := b.rows
	kk := a.cols
	for j0 := 0; j0 < p; j0 += fusedBlock {
		j1 := min(j0+fusedBlock, p)
		for i := lo; i < hi; i++ {
			// The [:kk] reslices pin every row to one length so the compiler
			// can drop the bounds checks of the unrolled loops.
			u := a.data[i*kk : i*kk+kk][:kk]
			oi := out.data[i*p : i*p+p]
			j := j0
			for ; j+4 <= j1; j += 4 {
				v0 := b.data[j*kk : j*kk+kk][:kk]
				v1 := b.data[(j+1)*kk : (j+1)*kk+kk][:kk]
				v2 := b.data[(j+2)*kk : (j+2)*kk+kk][:kk]
				v3 := b.data[(j+3)*kk : (j+3)*kk+kk][:kk]
				var s0, s1, s2, s3 T
				k := 0
				for ; k+4 <= kk; k += 4 {
					u0, u1, u2, u3 := u[k], u[k+1], u[k+2], u[k+3]
					s0 += u0*v0[k] + u1*v0[k+1] + u2*v0[k+2] + u3*v0[k+3]
					s1 += u0*v1[k] + u1*v1[k+1] + u2*v1[k+2] + u3*v1[k+3]
					s2 += u0*v2[k] + u1*v2[k+1] + u2*v2[k+2] + u3*v2[k+3]
					s3 += u0*v3[k] + u1*v3[k+1] + u2*v3[k+2] + u3*v3[k+3]
				}
				for ; k < kk; k++ {
					s0 += u[k] * v0[k]
					s1 += u[k] * v1[k]
					s2 += u[k] * v2[k]
					s3 += u[k] * v3[k]
				}
				oi[j], oi[j+1], oi[j+2], oi[j+3] = s0, s1, s2, s3
			}
			for ; j < j1; j++ {
				x, y := u, b.data[j*kk:j*kk+kk]
				var s T
				for len(x) >= 4 && len(y) >= 4 {
					s += x[0]*y[0] + x[1]*y[1] + x[2]*y[2] + x[3]*y[3]
					x, y = x[4:], y[4:]
				}
				for k, xk := range x {
					s += xk * y[k]
				}
				oi[j] = s
			}
		}
	}
}
