package synth

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"extrapdnn/internal/pmnf"
)

func TestGenSequenceKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for kind := SequenceKind(0); kind < numSequenceKinds; kind++ {
		for trial := 0; trial < 20; trial++ {
			seq := GenSequence(rng, kind, 9)
			if len(seq) != 9 {
				t.Fatalf("%v: len %d", kind, len(seq))
			}
			for i, v := range seq {
				if v <= 0 {
					t.Fatalf("%v: nonpositive value %g", kind, v)
				}
				if i > 0 && seq[i-1] >= v {
					t.Fatalf("%v: not strictly increasing: %v", kind, seq)
				}
			}
		}
	}
}

func TestGenSequenceEmpty(t *testing.T) {
	if GenSequence(rand.New(rand.NewSource(1)), Linear, 0) != nil {
		t.Fatal("count 0 should give nil")
	}
}

func TestGenSequenceUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind should panic")
		}
	}()
	GenSequence(rand.New(rand.NewSource(1)), SequenceKind(99), 5)
}

func TestSequenceKindString(t *testing.T) {
	if Linear.String() != "linear" || Exponential.String() != "exponential" {
		t.Fatal("String names wrong")
	}
	if SequenceKind(99).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestNoiseFactorBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		f := NoiseFactor(rng, 0.2)
		if f < 0.9 || f > 1.1 {
			t.Fatalf("noise factor %v outside ±10%% for level 20%%", f)
		}
	}
	if NoiseFactor(rng, 0) != 1 {
		t.Fatal("zero noise should give factor 1")
	}
}

func TestGenLineSampleNoiseless(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	classLinear := classOf(t, pmnf.Exponents{I: 1, J: 0})
	xs := []float64{4, 8, 16, 32, 64}
	s := GenLineSampleOpts(rng, classLinear, xs, 1, 0, 0, false)
	if s.Class != classLinear || len(s.Values) != 5 {
		t.Fatalf("sample = %+v", s)
	}
	// Noiseless linear data: second differences of (v - c0)/c1 over xs must
	// be consistent with linearity: v = c0 + c1*x → v strictly increasing.
	for i := 1; i < 5; i++ {
		if s.Values[i] <= s.Values[i-1] {
			t.Fatalf("linear class values not increasing: %v", s.Values)
		}
	}
}

func TestGenLineSampleRandomSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := GenLineSampleOpts(rng, 0, nil, 5, 0.1, 0.5, false)
	if len(s.Xs) < 5 || len(s.Xs) > 11 {
		t.Fatalf("random sequence length %d outside [5,11]", len(s.Xs))
	}
	if len(s.Values) != len(s.Xs) {
		t.Fatal("values/xs length mismatch")
	}
}

func TestGenLineSampleRepsReduceNoise(t *testing.T) {
	// With more repetitions the median is closer to truth on average.
	rng := rand.New(rand.NewSource(5))
	classConst := classOf(t, pmnf.Exponents{})
	xs := []float64{10, 20, 30, 40, 50}
	spread := func(reps int) float64 {
		total := 0.0
		for trial := 0; trial < 200; trial++ {
			s := GenLineSampleOpts(rng, classConst, xs, reps, 0.5, 0.5, false)
			mean := 0.0
			for _, v := range s.Values {
				mean += v
			}
			mean /= float64(len(s.Values))
			for _, v := range s.Values {
				total += math.Abs(v - mean)
			}
		}
		return total
	}
	if spread(5) >= spread(1) {
		t.Fatal("5 repetitions should reduce dispersion relative to 1")
	}
}

func TestGenInstanceShape(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	inst := GenInstance(rng, TaskSpec{NumParams: 2, PointsPerParam: 5, Reps: 5, NoiseLevel: 0.1, EvalPoints: 4})
	if got := len(inst.Set.Data); got != 25 {
		t.Fatalf("grid size %d, want 25", got)
	}
	if len(inst.EvalPoints) != 4 || len(inst.EvalTruth) != 4 {
		t.Fatalf("eval points %d/%d", len(inst.EvalPoints), len(inst.EvalTruth))
	}
	if err := inst.Set.Validate(); err != nil {
		t.Fatal(err)
	}
	if inst.Truth.NumParams() != 2 {
		t.Fatalf("truth has %d params", inst.Truth.NumParams())
	}
	for _, m := range inst.Set.Data {
		if len(m.Values) != 5 {
			t.Fatalf("expected 5 reps, got %d", len(m.Values))
		}
	}
}

func TestGenInstanceEvalPointsBeyondRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		inst := GenInstance(rng, TaskSpec{NumParams: 1, PointsPerParam: 5, Reps: 1, EvalPoints: 4})
		maxModel := inst.ParamValues[0][4]
		for _, p := range inst.EvalPoints {
			if p[0] <= maxModel {
				t.Fatalf("eval point %v inside modeling range (max %g)", p, maxModel)
			}
		}
	}
}

func TestGenInstanceNoiselessMatchesTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	inst := GenInstance(rng, TaskSpec{NumParams: 2, PointsPerParam: 5, Reps: 3, NoiseLevel: 0, EvalPoints: 2})
	for _, m := range inst.Set.Data {
		want := inst.Truth.Eval(m.Point)
		for _, v := range m.Values {
			if math.Abs(v-want) > 1e-9*math.Abs(want) {
				t.Fatalf("noiseless value %v != truth %v at %v", v, want, m.Point)
			}
		}
	}
}

func TestGenInstancePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, spec := range []TaskSpec{{NumParams: 0, PointsPerParam: 5}, {NumParams: 1, PointsPerParam: 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("spec %+v should panic", spec)
				}
			}()
			GenInstance(rng, spec)
		}()
	}
}

func TestRandomPartitionCoversAll(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(4)
		blocks := randomPartition(rng, m)
		seen := map[int]int{}
		for _, b := range blocks {
			if len(b) == 0 {
				return false
			}
			for _, l := range b {
				seen[l]++
			}
		}
		if len(seen) != m {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCartesian(t *testing.T) {
	grid := cartesian([][]float64{{1, 2}, {10, 20, 30}})
	if len(grid) != 6 {
		t.Fatalf("grid size %d, want 6", len(grid))
	}
	if grid[0][0] != 1 || grid[0][1] != 10 || grid[5][0] != 2 || grid[5][1] != 30 {
		t.Fatalf("grid = %v", grid)
	}
}

func TestGenInstanceDeterministic(t *testing.T) {
	spec := TaskSpec{NumParams: 2, PointsPerParam: 5, Reps: 5, NoiseLevel: 0.3, EvalPoints: 4}
	a := GenInstance(rand.New(rand.NewSource(42)), spec)
	b := GenInstance(rand.New(rand.NewSource(42)), spec)
	if a.Truth.String() != b.Truth.String() {
		t.Fatal("same seed should generate identical truth")
	}
	for i := range a.Set.Data {
		if a.Set.Data[i].Values[0] != b.Set.Data[i].Values[0] {
			t.Fatal("same seed should generate identical measurements")
		}
	}
}

func TestGenLineSampleOptsPerPointNoise(t *testing.T) {
	// Per-point noise must produce valid samples of the requested shape; and
	// with a degenerate range [x, x] it matches the per-line behavior
	// statistically (here we only check structure and determinism).
	rng := rand.New(rand.NewSource(21))
	xs := []float64{4, 8, 16, 32, 64}
	s := GenLineSampleOpts(rng, 5, xs, 5, 0.1, 0.9, true)
	if len(s.Values) != len(xs) || s.Class != 5 {
		t.Fatalf("sample = %+v", s)
	}
	for _, v := range s.Values {
		if v <= 0 || math.IsNaN(v) {
			t.Fatalf("invalid value %v", v)
		}
	}
	a := GenLineSampleOpts(rand.New(rand.NewSource(3)), 7, xs, 3, 0.2, 0.8, true)
	b := GenLineSampleOpts(rand.New(rand.NewSource(3)), 7, xs, 3, 0.2, 0.8, true)
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatal("per-point sampling should be deterministic per seed")
		}
	}
}

// TestGenLineWorkspaceMatchesSample pins the workspace fast path to the
// allocating API: same seed, bit-identical sequence and values, for both
// provided and generated parameter sequences.
func TestGenLineWorkspaceMatchesSample(t *testing.T) {
	var w LineWorkspace
	for _, fixed := range []bool{true, false} {
		var xs []float64
		if fixed {
			xs = []float64{8, 64, 512, 4096, 32768}
		}
		for class := 0; class < pmnf.NumClasses; class += 5 {
			seed := int64(100 + class)
			want := GenLineSampleOpts(rand.New(rand.NewSource(seed)), class, xs, 3, 0.1, 0.6, true)
			gxs, vals := w.GenLine(rand.New(rand.NewSource(seed)), class, xs, 3, 0.1, 0.6, true)
			if len(gxs) != len(want.Xs) || len(vals) != len(want.Values) {
				t.Fatalf("fixed=%v class %d: shape mismatch", fixed, class)
			}
			for i := range gxs {
				if gxs[i] != want.Xs[i] || vals[i] != want.Values[i] {
					t.Fatalf("fixed=%v class %d: workspace diverges at point %d", fixed, class, i)
				}
			}
		}
	}
}

// TestGenLineWorkspaceAllocationFree gates the steady-state contract: once
// the scratch buffers are grown, GenLine must not touch the heap.
func TestGenLineWorkspaceAllocationFree(t *testing.T) {
	var w LineWorkspace
	rng := rand.New(rand.NewSource(31))
	xs := []float64{4, 8, 16, 32, 64}
	w.GenLine(rng, 3, xs, 5, 0.1, 0.5, true) // warm the buffers
	allocs := testing.AllocsPerRun(200, func() {
		w.GenLine(rng, 3, xs, 5, 0.1, 0.5, true)
	})
	if allocs != 0 {
		t.Fatalf("GenLine allocates %v times per call on warm buffers, want 0", allocs)
	}
}

// TestGenSequenceIntoReusesBuffer verifies buffer reuse and equivalence with
// the allocating GenSequence for every kind.
func TestGenSequenceIntoReusesBuffer(t *testing.T) {
	buf := make([]float64, 16)
	for kind := SequenceKind(0); kind < numSequenceKinds; kind++ {
		want := GenSequence(rand.New(rand.NewSource(int64(kind)+50)), kind, 9)
		got := GenSequenceInto(buf, rand.New(rand.NewSource(int64(kind)+50)), kind, 9)
		if &got[0] != &buf[0] {
			t.Fatalf("%v: buffer not reused", kind)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: GenSequenceInto diverges: %v vs %v", kind, got, want)
			}
		}
	}
	if GenSequenceInto(buf, rand.New(rand.NewSource(1)), Linear, 0) != nil {
		t.Fatal("count 0 should give nil")
	}
}

func TestTermVisibilityEnforced(t *testing.T) {
	// Generated single-parameter samples must carry a visible term: the
	// noiseless value range along the line spans at least a few percent of
	// the mean for non-constant classes on a wide sequence.
	rng := rand.New(rand.NewSource(22))
	xs := []float64{8, 64, 512, 4096, 32768}
	linClass := classOf(t, pmnf.Exponents{I: 1})
	for trial := 0; trial < 50; trial++ {
		s := GenLineSampleOpts(rng, linClass, xs, 1, 0, 0, false)
		lo, hi, sum := s.Values[0], s.Values[0], 0.0
		for _, v := range s.Values {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			sum += v
		}
		mean := sum / float64(len(s.Values))
		if (hi-lo)/mean < minTermVisibility/2 {
			t.Fatalf("trial %d: invisible linear term, values %v", trial, s.Values)
		}
	}
}

// classOf returns the index of e among pmnf.Classes().
func classOf(t *testing.T, e pmnf.Exponents) int {
	t.Helper()
	for i, c := range pmnf.Classes() {
		if c == e {
			return i
		}
	}
	t.Fatalf("%+v is not a class", e)
	return -1
}
