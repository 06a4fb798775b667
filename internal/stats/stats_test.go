package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if !almostEq(Mean([]float64{1, 2, 3, 4}), 2.5, 1e-12) {
		t.Fatal("Mean wrong")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
}

func TestMedianOdd(t *testing.T) {
	if Median([]float64{5, 1, 3}) != 3 {
		t.Fatal("odd median wrong")
	}
}

func TestMedianEven(t *testing.T) {
	if Median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Fatal("even median wrong")
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Median mutated its input")
	}
}

func TestQuantileEdges(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 {
		t.Fatal("quantile endpoints wrong")
	}
	if !almostEq(Quantile(xs, 0.25), 2, 1e-12) {
		t.Fatalf("q25 = %v", Quantile(xs, 0.25))
	}
	if !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(xs, 1.1)) {
		t.Fatal("out-of-range q should be NaN")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
	if Quantile([]float64{7}, 0.9) != 7 {
		t.Fatal("single-element quantile")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1}
	if Min(xs) != -1 || Max(xs) != 4 {
		t.Fatal("Min/Max wrong")
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Fatal("empty Min/Max should be NaN")
	}
}

func TestSMAPEPerfect(t *testing.T) {
	if SMAPE([]float64{1, 2, 3}, []float64{1, 2, 3}) != 0 {
		t.Fatal("SMAPE of perfect prediction should be 0")
	}
}

func TestSMAPEKnownValue(t *testing.T) {
	// |10-20| / ((10+20)/2) = 10/15; *100/1 = 66.66..
	if !almostEq(SMAPE([]float64{10}, []float64{20}), 200.0/3.0, 1e-9) {
		t.Fatalf("SMAPE = %v", SMAPE([]float64{10}, []float64{20}))
	}
}

func TestSMAPEBounded(t *testing.T) {
	// SMAPE is bounded by 200%.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		p, a := make([]float64, n), make([]float64, n)
		for i := range p {
			p[i] = rng.NormFloat64() * 100
			a[i] = rng.NormFloat64() * 100
		}
		s := SMAPE(p, a)
		return s >= 0 && s <= 200+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSMAPEZeroPairs(t *testing.T) {
	if SMAPE([]float64{0, 1}, []float64{0, 1}) != 0 {
		t.Fatal("zero/zero pairs must not contribute")
	}
}

func TestSMAPEMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SMAPE length mismatch did not panic")
		}
	}()
	SMAPE([]float64{1}, []float64{1, 2})
}

func TestSMAPEEmpty(t *testing.T) {
	if !math.IsNaN(SMAPE(nil, nil)) {
		t.Fatal("empty SMAPE should be NaN")
	}
}

func TestRelativeErrorPct(t *testing.T) {
	if !almostEq(RelativeErrorPct(110, 100), 10, 1e-12) {
		t.Fatal("RelativeErrorPct wrong")
	}
	if RelativeErrorPct(0, 0) != 0 {
		t.Fatal("0/0 relative error should be 0")
	}
	if !math.IsInf(RelativeErrorPct(1, 0), 1) {
		t.Fatal("x/0 relative error should be +Inf")
	}
}

func TestBootstrapCICoversMean(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 10 + rng.NormFloat64()
	}
	ci := BootstrapCI(xs, Mean, 500, 0.99, rng)
	if !(ci.Lo <= 10 && 10 <= ci.Hi) {
		t.Fatalf("99%% CI %v should cover the true mean 10", ci)
	}
	if ci.Hi-ci.Lo > 1 {
		t.Fatalf("CI too wide: %v", ci)
	}
}

func TestBootstrapCIDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ci := BootstrapCI([]float64{5}, Mean, 10, 0.95, rng)
	if ci.Lo != 5 || ci.Hi != 5 {
		t.Fatalf("singleton CI should be degenerate, got %v", ci)
	}
	empty := BootstrapCI(nil, Mean, 10, 0.95, rng)
	if !math.IsNaN(empty.Lo) {
		t.Fatal("empty CI should be NaN")
	}
}

func TestQuantileMatchesSort(t *testing.T) {
	// Property: median lies between min and max and equals the middle order
	// statistic for odd n.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + 2*rng.Intn(10) // odd
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		m := Median(xs)
		sorted := make([]float64, n)
		copy(sorted, xs)
		sort.Float64s(sorted)
		return m == sorted[n/2]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
