package mat

import (
	"math/rand"
	"runtime"
	"testing"
)

// randomMatrix fills a rows×cols matrix with standard normal values.
func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

// fusedShapes covers degenerate vectors, odd sizes around the four-wide
// unroll, and shapes on both sides of parallelThreshold (64³ multiply-adds).
var fusedShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{7, 1, 7},
	{1, 5, 9}, // 1×n row vector operands
	{9, 5, 1}, // n×1 column vector output
	{3, 4, 5},
	{5, 3, 2},
	{8, 8, 8},
	{13, 17, 11}, // all dimensions straddle the unroll width
	{63, 65, 64}, // just below parallelThreshold
	{65, 64, 65}, // just above parallelThreshold
	{70, 70, 70}, // above parallelThreshold on every split
}

// TestMulATToMatchesTranspose: MulATTo(out, a, b) must equal
// MulTo(out, a.T(), b) exactly — the fused kernel replicates the
// accumulation order of the transposed multiply.
func TestMulATToMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range fusedShapes {
		a := randomMatrix(rng, s.k, s.m) // shared dim is the row count
		b := randomMatrix(rng, s.k, s.n)
		got := New(s.m, s.n)
		MulATTo(got, a, b)
		want := Mul(a.T(), b)
		if !got.Equal(want, 1e-12) {
			t.Errorf("MulATTo %dx%d·%dx%d differs from MulTo on transpose", a.rows, a.cols, b.rows, b.cols)
		}
	}
}

// TestMulBTToMatchesTranspose: MulBTTo(out, a, b) must equal
// MulTo(out, a, b.T()) exactly.
func TestMulBTToMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, s := range fusedShapes {
		a := randomMatrix(rng, s.m, s.k) // shared dim is the column count
		b := randomMatrix(rng, s.n, s.k)
		got := New(s.m, s.n)
		MulBTTo(got, a, b)
		want := Mul(a, b.T())
		if !got.Equal(want, 1e-12) {
			t.Errorf("MulBTTo %dx%d·%dx%d differs from MulTo on transpose", a.rows, a.cols, b.rows, b.cols)
		}
	}
}

// TestFusedKernelsRandomShapes fuzzes random shapes on both sides of the
// parallel threshold, with GOMAXPROCS raised so the goroutine-parallel path
// runs even on a single-CPU machine.
func TestFusedKernelsRandomShapes(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		m, k, n := 1+rng.Intn(90), 1+rng.Intn(90), 1+rng.Intn(90)
		a := randomMatrix(rng, k, m)
		b := randomMatrix(rng, k, n)
		at := New(m, n)
		MulATTo(at, a, b)
		if want := Mul(a.T(), b); !at.Equal(want, 1e-12) {
			t.Fatalf("MulATTo mismatch at m=%d k=%d n=%d", m, k, n)
		}
		c := randomMatrix(rng, m, k)
		d := randomMatrix(rng, n, k)
		bt := New(m, n)
		MulBTTo(bt, c, d)
		if want := Mul(c, d.T()); !bt.Equal(want, 1e-12) {
			t.Fatalf("MulBTTo mismatch at m=%d k=%d n=%d", m, k, n)
		}
	}
}

// TestMulToParallelMatchesSerial pins the row-split parallel path to the
// serial result (bit-identical: the split only partitions output rows).
func TestMulToParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(rng, 80, 75)
	b := randomMatrix(rng, 75, 70)
	serial := New(80, 70)
	mulRange(serial, a, b, 0, 80)
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	par := Mul(a, b)
	if !par.Equal(serial, 0) {
		t.Fatal("parallel MulTo differs from serial kernel")
	}
}

func TestFusedDimensionPanics(t *testing.T) {
	cases := map[string]func(){
		"MulATTo shared dim": func() { MulATTo(New(2, 2), New(3, 2), New(4, 2)) },
		"MulATTo out shape":  func() { MulATTo(New(2, 3), New(3, 2), New(3, 2)) },
		"MulBTTo shared dim": func() { MulBTTo(New(2, 2), New(2, 3), New(2, 4)) },
		"MulBTTo out shape":  func() { MulBTTo(New(3, 2), New(2, 3), New(2, 3)) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
