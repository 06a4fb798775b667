package mat

import (
	"math"
	"math/rand"
	"testing"
)

// randPair returns a float64 matrix of small random values and its float32
// downcast, so kernel outputs can be compared across precisions.
func randPair(rng *rand.Rand, rows, cols int) (*Matrix, *Dense[float32]) {
	m := New(rows, cols)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64()
	}
	m32 := NewDense[float32](rows, cols)
	Convert(m32, m)
	return m, m32
}

// relTol is the parity tolerance of the float32 kernels against float64: the
// shared dimensions in these tests are a few hundred elements, so accumulated
// rounding stays well inside 1e-3 relative on unit-scale data.
const relTol = 1e-3

func maxAbsDiff(got *Dense[float32], want *Matrix) float64 {
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		return math.Inf(1)
	}
	max := 0.0
	for i, v := range got.Data() {
		if d := math.Abs(float64(v) - want.Data()[i]); d > max {
			max = d
		}
	}
	return max
}

func TestMulTo32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 11, 43}, {7, 5, 3}, {64, 11, 256}, {65, 130, 67}, {130, 257, 65}} {
		a, a32 := randPair(rng, dims[0], dims[1])
		b, b32 := randPair(rng, dims[1], dims[2])
		want := Mul(a, b)
		got := Mul(a32, b32)
		if d := maxAbsDiff(got, want); d > relTol {
			t.Errorf("float32 MulTo %v: max abs diff %g", dims, d)
		}
	}
}

func TestMulATTo32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][3]int{{5, 3, 7}, {64, 11, 43}, {257, 66, 130}} {
		a, a32 := randPair(rng, dims[0], dims[1])
		b, b32 := randPair(rng, dims[0], dims[2])
		want := Mul(a.T(), b)
		got := NewDense[float32](dims[1], dims[2])
		MulATTo(got, a32, b32)
		if d := maxAbsDiff(got, want); d > relTol {
			t.Errorf("float32 MulATTo %v: max abs diff %g", dims, d)
		}
	}
}

func TestMulBTTo32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range [][3]int{{5, 3, 7}, {64, 43, 11}, {130, 66, 257}} {
		a, a32 := randPair(rng, dims[0], dims[1])
		b, b32 := randPair(rng, dims[2], dims[1])
		want := Mul(a, b.T())
		got := NewDense[float32](dims[0], dims[2])
		MulBTTo(got, a32, b32)
		if d := maxAbsDiff(got, want); d > relTol {
			t.Errorf("float32 MulBTTo %v: max abs diff %g", dims, d)
		}
	}
}

// TestMulTo32SerialParallelIdentical pins that the float32 kernels, like the
// float64 ones, produce bit-identical output whether the row split runs
// serially or across goroutines (the accumulation is per output row).
func TestMulTo32SerialParallelIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	_, a := randPair(rng, 130, 257)
	_, b := randPair(rng, 257, 65)
	serial := NewDense[float32](130, 65)
	mulRange(serial, a, b, 0, 130)
	parallel := NewDense[float32](130, 65)
	MulTo(parallel, a, b)
	for i, v := range serial.Data() {
		if parallel.Data()[i] != v {
			t.Fatalf("element %d differs: serial %v parallel %v", i, v, parallel.Data()[i])
		}
	}
}

func TestMatrix32Conversions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, m32 := randPair(rng, 4, 3)
	for i, v := range m32.Data() {
		if v != float32(m.Data()[i]) {
			t.Fatalf("downcast element %d: %v vs %v", i, v, m.Data()[i])
		}
	}
	back := New(4, 3)
	Convert(back, m32)
	for i, v := range back.Data() {
		if v != float64(m32.Data()[i]) {
			t.Fatalf("upcast element %d: %v", i, v)
		}
	}
	again := NewDense[float32](4, 3)
	Convert(again, back)
	if !again.Equal(m32, 0) {
		t.Fatal("float32 -> float64 -> float32 round trip is not exact")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Convert shape mismatch did not panic")
		}
	}()
	Convert(New(3, 4), m32)
}

func TestMatrix32Basics(t *testing.T) {
	m := NewDense[float32](2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("Set/At")
	}
	if got := m.Row(1)[2]; got != 5 {
		t.Fatal("Row aliasing")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("Clone aliases")
	}
	m.Scale(2)
	if m.At(1, 2) != 10 {
		t.Fatal("Scale")
	}
	b := NewDense[float32](2, 3)
	b.Set(1, 2, 1)
	m.AddScaled(3, b)
	if m.At(1, 2) != 13 {
		t.Fatal("AddScaled")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("float32 MulTo shape mismatch did not panic")
		}
	}()
	MulTo(NewDense[float32](2, 2), NewDense[float32](2, 3), NewDense[float32](2, 3))
}
