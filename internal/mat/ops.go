package mat

import (
	"fmt"
	"runtime"
	"sync"
)

// parallelThreshold is the minimum number of multiply-adds in a matmul before
// the work is split across goroutines. Below it the goroutine and
// synchronization overhead outweighs the parallel speedup.
const parallelThreshold = 64 * 64 * 64

// Mul returns a*b. It panics if the inner dimensions disagree.
// Large products are computed in parallel across GOMAXPROCS goroutines.
func Mul[T Float](a, b *Dense[T]) *Dense[T] {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d by %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense[T](a.rows, b.cols)
	MulTo(out, a, b)
	return out
}

// MulTo computes out = a*b into a preallocated matrix, avoiding allocation in
// hot loops. out must be a.rows×b.cols and must not alias a or b.
func MulTo[T Float](out, a, b *Dense[T]) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: MulTo dimension mismatch %dx%d by %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if out.rows != a.rows || out.cols != b.cols {
		panic(fmt.Sprintf("mat: MulTo output %dx%d, want %dx%d", out.rows, out.cols, a.rows, b.cols))
	}
	if serialMul(a.rows, a.rows*a.cols*b.cols) {
		mulRange(out, a, b, 0, a.rows)
		return
	}
	parallelRows(a.rows, func(lo, hi int) {
		mulRange(out, a, b, lo, hi)
	})
}

// serialMul reports whether a matmul splitting `rows` output rows with `work`
// total multiply-adds should run on the calling goroutine. It is the shared
// parallelism policy of MulTo, MulATTo and MulBTTo; keeping the check at the
// call site lets the serial fast path return before any closure is built, so
// small products stay allocation-free.
func serialMul(rows, work int) bool {
	return work < parallelThreshold || runtime.GOMAXPROCS(0) < 2 || rows < 2
}

// parallelRows splits the half-open row range [0, rows) across GOMAXPROCS
// goroutines and runs fn(lo, hi) on each chunk. Every kernel splits only its
// output rows, so workers write disjoint memory and need no locks.
func parallelRows(rows int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// mulRange computes rows [lo,hi) of out = a*b using an ikj loop order that
// streams through b row-by-row for cache friendliness. The k loop is unrolled
// four-wide so each output element is loaded and stored once per four
// multiply-adds; the accumulation order (chunks of four, then single
// leftovers) is shared with mulATRange and mulBTRange so the fused kernels
// are bit-identical to MulTo on an explicitly transposed operand. float32
// products take the SIMD path instead when the host has one.
func mulRange[T Float](out, a, b *Dense[T], lo, hi int) {
	n := b.cols
	kk := a.cols
	if o, ok := any(out).(*Dense[float32]); ok && useFMA && n >= 8 && kk > 0 {
		mulRangeFMA(o, any(a).(*Dense[float32]), any(b).(*Dense[float32]), lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		// The [:n] reslices pin every row to the same length as the output
		// row, letting the compiler drop the per-element bounds checks in the
		// inner loops.
		oi := out.data[i*n : i*n+n][:n]
		for j := range oi {
			oi[j] = 0
		}
		ai := a.data[i*kk : i*kk+kk]
		k := 0
		for ; k+4 <= kk; k += 4 {
			a0, a1, a2, a3 := ai[k], ai[k+1], ai[k+2], ai[k+3]
			b0 := b.data[k*n : k*n+n][:n]
			b1 := b.data[(k+1)*n : (k+1)*n+n][:n]
			b2 := b.data[(k+2)*n : (k+2)*n+n][:n]
			b3 := b.data[(k+3)*n : (k+3)*n+n][:n]
			for j := range oi {
				oi[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; k < kk; k++ {
			aik := ai[k]
			bk := b.data[k*n : k*n+n][:n]
			for j := range oi {
				oi[j] += aik * bk[j]
			}
		}
	}
}

// MulVec returns a*x for a column vector x (len(x) == a.cols).
func MulVec(a *Matrix, x []float64) []float64 {
	if a.cols != len(x) {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %dx%d by vec %d", a.rows, a.cols, len(x)))
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		ri := a.data[i*a.cols : (i+1)*a.cols]
		s := 0.0
		for j, v := range ri {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// MulVecTo computes a*x into dst (len(dst) == a.rows), allocation-free. It
// accumulates in exactly the same order as MulVec, so results are
// bit-identical — the hypothesis-fitting workspace in internal/regression
// relies on that to stay byte-equal to the allocating path.
func MulVecTo(dst []float64, a *Matrix, x []float64) {
	if a.cols != len(x) {
		panic(fmt.Sprintf("mat: MulVecTo dimension mismatch %dx%d by vec %d", a.rows, a.cols, len(x)))
	}
	if a.rows != len(dst) {
		panic(fmt.Sprintf("mat: MulVecTo dst length %d, need %d", len(dst), a.rows))
	}
	for i := 0; i < a.rows; i++ {
		ri := a.data[i*a.cols : (i+1)*a.cols]
		s := 0.0
		for j, v := range ri {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// Dot returns the inner product of x and y, which must have equal length.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}
