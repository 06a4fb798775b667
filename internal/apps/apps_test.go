package apps

import (
	"math"
	"math/rand"
	"testing"

	"extrapdnn/internal/noise"
	"extrapdnn/internal/regression"
	"extrapdnn/internal/stats"
)

func TestAllApps(t *testing.T) {
	all := All()
	if len(all) != 3 {
		t.Fatalf("%d apps", len(all))
	}
	names := map[string]bool{}
	for _, a := range all {
		names[a.Name] = true
	}
	for _, want := range []string{"Kripke", "FASTEST", "RELeARN"} {
		if !names[want] {
			t.Errorf("missing app %s", want)
		}
	}
}

func TestByName(t *testing.T) {
	if ByName("Kripke") == nil || ByName("nope") != nil {
		t.Fatal("ByName wrong")
	}
}

func TestKripkeLayout(t *testing.T) {
	k := Kripke()
	if len(k.ModelPoints) != 125 {
		t.Fatalf("Kripke has %d modeling points, want 125 (5×5×5, x2=12 held out)", len(k.ModelPoints))
	}
	for _, p := range k.ModelPoints {
		if p[1] == 12 {
			t.Fatal("x2=12 must be excluded from modeling")
		}
	}
	if !k.EvalPoint.Equal([]float64{32768, 12, 160}) {
		t.Fatalf("eval point %v", k.EvalPoint)
	}
	if k.Reps != 5 {
		t.Fatal("Kripke uses 5 repetitions")
	}
	if got := relevantKernels(k); got != 6 {
		t.Fatalf("Kripke should have 6 performance-relevant kernels, got %d", got)
	}
}

func TestFASTESTLayout(t *testing.T) {
	f := FASTEST()
	if len(f.ModelPoints) != 9 {
		t.Fatalf("FASTEST has %d modeling points, want 9 (two crossing 5-point lines)", len(f.ModelPoints))
	}
	if got := relevantKernels(f); got != 20 {
		t.Fatalf("FASTEST should have 20 performance-relevant kernels, got %d", got)
	}
	if !f.EvalPoint.Equal([]float64{2048, 8192}) {
		t.Fatalf("eval point %v", f.EvalPoint)
	}
}

func TestRELeARNLayout(t *testing.T) {
	r := RELeARN()
	if len(r.ModelPoints) != 9 {
		t.Fatalf("RELeARN has %d modeling points, want 9", len(r.ModelPoints))
	}
	if r.Reps != 2 {
		t.Fatal("RELeARN uses 2 repetitions")
	}
}

func TestGenerateValidSets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, a := range All() {
		for _, k := range a.Kernels {
			set := a.Generate(rng, k)
			if err := set.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", a.Name, k.Name, err)
			}
			if len(set.Data) != len(a.ModelPoints) {
				t.Fatalf("%s/%s: %d measurements", a.Name, k.Name, len(set.Data))
			}
			if set.Repetitions() != a.Reps {
				t.Fatalf("%s/%s: %d reps", a.Name, k.Name, set.Repetitions())
			}
		}
	}
}

func TestGenerateLinesAreModelable(t *testing.T) {
	// Every app's measurement layout must expose a >=5-point line per
	// parameter, or neither modeler can run.
	rng := rand.New(rand.NewSource(2))
	for _, a := range All() {
		set := a.Generate(rng, a.Kernels[0])
		lines, err := regression.SelectLines(set)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if len(lines) != len(a.ParamNames) {
			t.Fatalf("%s: %d lines", a.Name, len(lines))
		}
	}
}

func TestNoiseProfilesMatchFig5(t *testing.T) {
	// The generated noise must land near the paper's per-app statistics:
	// Kripke mean ≈ 17.44%, FASTEST ≈ 49.56%, RELeARN ≈ 0.65%.
	rng := rand.New(rand.NewSource(3))
	wantMean := map[string]float64{"Kripke": 0.1744, "FASTEST": 0.4956, "RELeARN": 0.0065}
	tolerance := map[string]float64{"Kripke": 0.05, "FASTEST": 0.12, "RELeARN": 0.004}
	for _, a := range All() {
		var levels []float64
		for i := 0; i < 4000; i++ {
			levels = append(levels, a.noiseLevel(rng))
		}
		mean := stats.Mean(levels)
		if math.Abs(mean-wantMean[a.Name]) > tolerance[a.Name] {
			t.Errorf("%s: generated mean noise %.4f, want ≈ %.4f", a.Name, mean, wantMean[a.Name])
		}
		if stats.Min(levels) < a.NoiseLo-1e-9 || stats.Max(levels) > a.NoiseHi+1e-9 {
			t.Errorf("%s: levels escape [%v, %v]", a.Name, a.NoiseLo, a.NoiseHi)
		}
	}
}

func TestEstimatedNoiseOrdering(t *testing.T) {
	// The rrd estimator applied to generated measurements must reproduce the
	// paper's ordering: FASTEST >> Kripke >> RELeARN.
	rng := rand.New(rand.NewSource(4))
	est := map[string]float64{}
	for _, a := range All() {
		set := a.Generate(rng, a.Kernels[0])
		est[a.Name] = noise.Analyze(set).Mean
	}
	if !(est["FASTEST"] > est["Kripke"] && est["Kripke"] > est["RELeARN"]) {
		t.Fatalf("estimated noise ordering wrong: %v", est)
	}
}

// TestMeasureEvalNearTruth checks the evaluation measurement at P+ that
// Campaign returns with each kernel's set.
func TestMeasureEvalNearTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := RELeARN()
	k := r.Kernels[0]
	truth := k.Truth.Eval(r.EvalPoint)
	_, got := r.Campaign(rng, k)
	if math.Abs(got-truth)/truth > 0.01 {
		t.Fatalf("RELeARN eval measurement %v too far from truth %v (noise ~0.65%%)", got, truth)
	}
}

func TestMeasureEvalMedianEvenReps(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	r := RELeARN() // 2 reps → even-length median path
	for i := 0; i < 10; i++ {
		_, v := r.Campaign(rng, r.Kernels[1])
		if v <= 0 {
			t.Fatal("nonpositive eval measurement")
		}
	}
}

func TestKernelTruthPositiveOverDesign(t *testing.T) {
	for _, a := range All() {
		for _, k := range a.Kernels {
			for _, p := range a.ModelPoints {
				if v := k.Truth.Eval(p); v <= 0 {
					t.Fatalf("%s/%s: nonpositive truth %v at %v", a.Name, k.Name, v, p)
				}
			}
			if v := k.Truth.Eval(a.EvalPoint); v <= 0 {
				t.Fatalf("%s/%s: nonpositive truth at eval point", a.Name, k.Name)
			}
		}
	}
}

func TestGridHelper(t *testing.T) {
	pts := grid([]float64{1, 2}, []float64{3, 4, 5})
	if len(pts) != 6 {
		t.Fatalf("grid size %d", len(pts))
	}
	if grid() != nil {
		t.Fatal("empty grid should be nil")
	}
}

func TestCrossLinesDedup(t *testing.T) {
	pts := crossLines([]float64{1, 2, 3}, 10, 1, []float64{10, 20})
	// 3 + 2 - 1 overlap = 4.
	if len(pts) != 4 {
		t.Fatalf("crossLines produced %d points, want 4", len(pts))
	}
}

// relevantKernels counts the kernels above the 1% runtime-share filter.
func relevantKernels(a *App) int {
	n := 0
	for _, k := range a.Kernels {
		if k.PerformanceRelevant() {
			n++
		}
	}
	return n
}
