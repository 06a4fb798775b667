package mat

// The float32 SIMD paths of the generic kernels. mulRange and mulATRange
// route a Dense[float32] product here when the host has AVX2+FMA (useFMA)
// and the output is at least one eight-lane stripe wide. Each output row is
// one fmaRow call over the full stripes plus dotCols32 for the tail columns.
// The float32 path promises tolerance parity with float64, not bit identity:
// the assembly keeps four accumulators per stripe. Float64 never comes here.

func mulRangeFMA(out, a, b *Dense[float32], lo, hi int) {
	n, kk := b.cols, a.cols
	n8 := n &^ 7
	for i := lo; i < hi; i++ {
		oi := out.data[i*n : i*n+n]
		ai := a.data[i*kk : i*kk+kk]
		fmaRow(&oi[0], n, &ai[0], 1, kk, &b.data[0], n)
		if n8 < n {
			dotCols32(oi, n8, ai, 1, kk, b.data, n)
		}
	}
}

func mulATRangeFMA(out, a, b *Dense[float32], lo, hi int) {
	n, ka, rows := b.cols, a.cols, a.rows
	n8 := n &^ 7
	for k := lo; k < hi; k++ {
		ok := out.data[k*n : k*n+n]
		fmaRow(&ok[0], n, &a.data[k], ka, rows, &b.data[0], n)
		if n8 < n {
			dotCols32(ok, n8, a.data[k:], ka, rows, b.data, n)
		}
	}
}

// dotCols32 computes oi[j] for j in [j0, len(oi)) as the dot product of the
// strided coefficient vector a and column j of b — the scalar tail columns
// the eight-wide fmaRow stripes leave behind, and the reference semantics of
// that primitive (the parity tests compare the two directly).
func dotCols32(oi []float32, j0 int, a []float32, astride, kk int, b []float32, bstride int) {
	for j := j0; j < len(oi); j++ {
		var s float32
		for k := 0; k < kk; k++ {
			s += a[k*astride] * b[k*bstride+j]
		}
		oi[j] = s
	}
}
