package mat

import (
	"math"
	"math/rand"
	"testing"
)

// withScalarKernels runs f with the SIMD dispatch disabled so tests can
// compare the assembly kernels against the pure-Go fallback on the same host.
func withScalarKernels(f func()) {
	saved := useFMA
	useFMA = false
	defer func() { useFMA = saved }()
	f()
}

// TestSIMDKernelParity compares the SIMD float32 matmul family against the
// scalar fallback across shapes that exercise every stripe/tail split: column
// counts below, at, and off the eight-lane width, odd k for the FMA unroll
// remainder, and single rows/columns. The two paths reassociate differently,
// so parity is relative-tolerance, not bitwise.
func TestSIMDKernelParity(t *testing.T) {
	if !useFMA {
		t.Skip("no SIMD on this host; nothing to compare")
	}
	rng := rand.New(rand.NewSource(7))
	shapes := []kernelShape{
		{1, 1, 1}, {1, 1, 8}, {1, 1, 9}, {3, 5, 7}, {4, 8, 8},
		{5, 7, 12}, {8, 9, 16}, {16, 43, 48}, {64, 48, 43}, {2, 64, 33},
	}
	shapes = append(shapes, trainingShapes(testing.Short())...)
	const tol = 1e-4
	for _, s := range shapes {
		a := NewDense[float32](s.m, s.k)
		b := NewDense[float32](s.k, s.n)
		bt := NewDense[float32](s.n, s.k)
		for i := range a.data {
			a.data[i] = float32(rng.NormFloat64())
		}
		for i := range b.data {
			b.data[i] = float32(rng.NormFloat64())
		}
		for i := range bt.data {
			bt.data[i] = float32(rng.NormFloat64())
		}

		check := func(name string, got, want *Dense[float32]) {
			t.Helper()
			for i, g := range got.data {
				w := want.data[i]
				if d := math.Abs(float64(g - w)); d > tol*(1+math.Abs(float64(w))) {
					t.Fatalf("%s %dx%dx%d element %d: simd %v scalar %v", name, s.m, s.k, s.n, i, g, w)
				}
			}
		}

		simd, scalar := NewDense[float32](s.m, s.n), NewDense[float32](s.m, s.n)
		MulTo(simd, a, b)
		withScalarKernels(func() { MulTo(scalar, a, b) })
		check("MulTo", simd, scalar)

		// MulATTo contracts a.rows with b.rows, so build a matching b.
		bm := NewDense[float32](s.m, s.n)
		for i := range bm.data {
			bm.data[i] = float32(rng.NormFloat64())
		}
		atSIMD := NewDense[float32](s.k, s.n)
		atRef := NewDense[float32](s.k, s.n)
		MulATTo(atSIMD, a, bm)
		withScalarKernels(func() { MulATTo(atRef, a, bm) })
		check("MulATTo", atSIMD, atRef)

		btSIMD := NewDense[float32](s.m, s.n)
		btRef := NewDense[float32](s.m, s.n)
		MulBTTo(btSIMD, a, bt)
		withScalarKernels(func() { MulBTTo(btRef, a, bt) })
		check("MulBTTo", btSIMD, btRef)
	}
}

// TestSIMDKernelDeterminism pins that the SIMD path is deterministic and
// independent of row-range splits: serial and forced-parallel products must
// be bit-identical, same as the scalar pin in matrix32_test.go.
func TestSIMDKernelDeterminism(t *testing.T) {
	if !useFMA {
		t.Skip("no SIMD on this host")
	}
	rng := rand.New(rand.NewSource(9))
	a := NewDense[float32](37, 29)
	b := NewDense[float32](29, 23)
	for i := range a.data {
		a.data[i] = float32(rng.NormFloat64())
	}
	for i := range b.data {
		b.data[i] = float32(rng.NormFloat64())
	}
	serial := NewDense[float32](37, 23)
	mulRange(serial, a, b, 0, 37)
	split := NewDense[float32](37, 23)
	mulRange(split, a, b, 0, 11)
	mulRange(split, a, b, 11, 12)
	mulRange(split, a, b, 12, 37)
	for i := range serial.data {
		if serial.data[i] != split.data[i] {
			t.Fatalf("element %d: serial %v split %v (SIMD rows must not depend on range splits)", i, serial.data[i], split.data[i])
		}
	}
}

// TestTanh32sMatchesScalar checks the vectorized tanh against the scalar
// reference on a range sweep including saturation; the vector clamp path is
// allowed one ULP of slack at ±1.
func TestTanh32sMatchesScalar(t *testing.T) {
	var v []float32
	for x := -12.0; x <= 12.0; x += 1e-2 {
		v = append(v, float32(x))
	}
	v = append(v, 0, 100, -100, 7.9053, -7.9053)
	got := make([]float32, len(v))
	copy(got, v)
	Tanh32s(got)
	for i, x := range v {
		want := math.Tanh(float64(x))
		if d := math.Abs(float64(got[i]) - want); d > 5e-7 {
			t.Fatalf("Tanh32s(%v) = %v, want %v (diff %v)", x, got[i], want, d)
		}
	}
	// Odd lengths exercise the scalar tail after the eight-lane blocks.
	for _, n := range []int{0, 1, 7, 8, 9, 15, 17} {
		w := make([]float32, n)
		for i := range w {
			w[i] = float32(i)*0.3 - 2
		}
		Tanh32s(w)
		for i := range w {
			want := math.Tanh(float64(float32(i)*0.3 - 2))
			if d := math.Abs(float64(w[i]) - want); d > 5e-7 {
				t.Fatalf("len %d element %d: %v want %v", n, i, w[i], want)
			}
		}
	}
}
