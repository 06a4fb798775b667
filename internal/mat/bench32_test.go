package mat

import (
	"math/rand"
	"testing"
)

// Kernel benchmarks at the shapes the training loop actually produces
// (batch 64, layers 11→64→48→43), float64 vs float32 side by side. These are
// the inputs to the precision fast-path speedup table in docs/PERFORMANCE.md:
// the float32 instantiation dispatches MulTo and MulATTo to SIMD assembly on
// capable hosts, so the ratio here is SIMD + cache-density gain, not just
// element width.

func benchMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64()
	}
	return m
}

// to32 returns a float32 copy of m.
func to32(m *Matrix) *Dense[float32] {
	c := NewDense[float32](m.Rows(), m.Cols())
	Convert(c, m)
	return c
}

var kernelShapes = []struct {
	name    string
	m, k, n int
}{
	{"64x64x48", 64, 64, 48}, // forward: batch 64, hidden 64→48
	{"64x48x43", 64, 48, 43}, // forward: hidden 48 → 43 classes
	{"256x64x64", 256, 64, 64},
}

func BenchmarkMulTo(b *testing.B) {
	for _, s := range kernelShapes {
		rng := rand.New(rand.NewSource(1))
		a := benchMat(rng, s.m, s.k)
		bb := benchMat(rng, s.k, s.n)
		a32, b32 := to32(a), to32(bb)
		out := New(s.m, s.n)
		out32 := NewDense[float32](s.m, s.n)
		b.Run(s.name+"/float64", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MulTo(out, a, bb)
			}
		})
		b.Run(s.name+"/float32", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MulTo(out32, a32, b32)
			}
		})
	}
}

func BenchmarkMulATTo(b *testing.B) {
	for _, s := range kernelShapes {
		rng := rand.New(rand.NewSource(2))
		a := benchMat(rng, s.m, s.k)
		bb := benchMat(rng, s.m, s.n)
		a32, b32 := to32(a), to32(bb)
		out := New(s.k, s.n)
		out32 := NewDense[float32](s.k, s.n)
		b.Run(s.name+"/float64", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MulATTo(out, a, bb)
			}
		})
		b.Run(s.name+"/float32", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MulATTo(out32, a32, b32)
			}
		})
	}
}

func BenchmarkMulBTTo(b *testing.B) {
	for _, s := range kernelShapes {
		rng := rand.New(rand.NewSource(3))
		a := benchMat(rng, s.m, s.k)
		bb := benchMat(rng, s.n, s.k)
		a32, b32 := to32(a), to32(bb)
		out := New(s.m, s.n)
		out32 := NewDense[float32](s.m, s.n)
		b.Run(s.name+"/float64", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MulBTTo(out, a, bb)
			}
		})
		b.Run(s.name+"/float32", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MulBTTo(out32, a32, b32)
			}
		})
	}
}
