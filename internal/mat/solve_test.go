package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLeastSquaresExact(t *testing.T) {
	// Square full-rank system: LS solution equals exact solution.
	a := NewFromRows([][]float64{{2, 1}, {1, 3}})
	x, err := LeastSquares(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-10 || math.Abs(x[1]-3) > 1e-10 {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2 + 3t over noisy-free samples; recovery must be exact.
	ts := []float64{1, 2, 3, 4, 5, 6}
	rows := make([][]float64, len(ts))
	b := make([]float64, len(ts))
	for i, tv := range ts {
		rows[i] = []float64{1, tv}
		b[i] = 2 + 3*tv
	}
	x, err := LeastSquares(NewFromRows(rows), b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-10 || math.Abs(x[1]-3) > 1e-10 {
		t.Fatalf("x = %v, want [2 3]", x)
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// Property: at the LS optimum the residual is orthogonal to the column
	// space, i.e. A^T (Ax - b) == 0.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 6+rng.Intn(10), 2+rng.Intn(3)
		a := New(m, n)
		for i := range a.Data() {
			a.Data()[i] = rng.NormFloat64()
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			return true // singular random draw: skip
		}
		r := MulVec(a, x)
		for i := range r {
			r[i] -= b[i]
		}
		atr := MulVec(a.T(), r)
		for _, v := range atr {
			if math.Abs(v) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLeastSquaresSingular(t *testing.T) {
	// Duplicate columns → singular.
	a := NewFromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	if _, err := LeastSquares(a, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected error for rank-deficient system")
	}
}

func TestLeastSquaresUnderdetermined(t *testing.T) {
	if _, err := LeastSquares(New(2, 3), []float64{1, 2}); err == nil {
		t.Fatal("expected error for underdetermined system")
	}
}

func TestLeastSquaresShapeMismatch(t *testing.T) {
	if _, err := LeastSquares(New(3, 2), []float64{1, 2}); err == nil {
		t.Fatal("expected error for rhs length mismatch")
	}
}

// A workspace reused across systems (some singular) must return what a
// fresh LeastSquares returns for each one, bit for bit: no state of an
// earlier solve may leak into a later one.
func TestLeastSquaresWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const m, n = 9, 3
	w := NewLeastSquaresWorkspace(m, n)
	for trial := 0; trial < 40; trial++ {
		a := New(m, n)
		for i := range a.Data() {
			a.Data()[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)))
		}
		if trial%4 == 3 {
			for i := 0; i < m; i++ {
				a.Set(i, 2, 2*a.At(i, 1)) // rank-deficient
			}
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want, wantErr := LeastSquares(a, b)
		got, gotErr := w.Solve(a, b)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: err = %v, LeastSquares err = %v", trial, gotErr, wantErr)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: x = %v, LeastSquares x = %v", trial, got, want)
			}
		}
		if gotErr != nil {
			continue
		}
		eq := w.Equilibrated()
		for j := 0; j < n; j++ {
			ss := 0.0
			for i := 0; i < m; i++ {
				ss += eq[j][i] * eq[j][i]
				if math.Signbit(eq[j][i]) != math.Signbit(a.At(i, j)) {
					t.Fatalf("trial %d: equilibration flipped a sign", trial)
				}
			}
			if math.Abs(ss-1) > 1e-12 {
				t.Fatalf("trial %d: equilibrated column %d has squared norm %v", trial, j, ss)
			}
		}
	}
	if _, err := w.Solve(New(m+1, n), make([]float64, m+1)); err == nil {
		t.Fatal("expected error for a system of another shape")
	}
}
