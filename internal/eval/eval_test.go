package eval

import (
	"math"
	"sync"
	"testing"

	"extrapdnn/internal/apps"
	"extrapdnn/internal/dnnmodel"
)

var (
	once       sync.Once
	pretrained *dnnmodel.Modeler
)

func testPretrained() *dnnmodel.Modeler {
	once.Do(func() {
		pretrained, _ = dnnmodel.Pretrain(dnnmodel.PretrainConfig{
			Hidden:          dnnmodel.TinyTopology,
			SamplesPerClass: 120,
			Epochs:          6,
			Seed:            1,
		})
	})
	return pretrained
}

var quickAdapt = dnnmodel.AdaptConfig{SamplesPerClass: 40, Epochs: 1}

func TestRunSynthSingleParam(t *testing.T) {
	rows, err := RunSynth(SynthConfig{
		NumParams:   1,
		NoiseLevels: []float64{0.02, 0.75},
		Functions:   24,
		Seed:        1,
		Pretrained:  testPretrained(),
		Adapt:       quickAdapt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, row := range rows {
		if row.Functions < 20 {
			t.Fatalf("noise %v: only %d/24 functions modeled", row.Noise, row.Functions)
		}
		// Buckets are nested: acc(1/4) <= acc(1/3) <= acc(1/2).
		for _, acc := range [][3]float64{row.RegAcc, row.AdaptAcc} {
			if acc[0] > acc[1]+1e-9 || acc[1] > acc[2]+1e-9 {
				t.Fatalf("noise %v: buckets not nested: %v", row.Noise, acc)
			}
			for _, a := range acc {
				if a < 0 || a > 1 {
					t.Fatalf("accuracy %v out of range", a)
				}
			}
		}
		if len(row.RegErr) != 4 || len(row.AdaptErr) != 4 {
			t.Fatalf("expected 4 eval-point errors, got %d/%d", len(row.RegErr), len(row.AdaptErr))
		}
		for e := range row.RegErr {
			if row.RegErrCI[e].Lo > row.RegErr[e] || row.RegErrCI[e].Hi < row.RegErr[e] {
				t.Fatalf("CI %v does not cover median %v", row.RegErrCI[e], row.RegErr[e])
			}
		}
	}
	// At calm noise the regression accuracy should be high.
	if rows[0].RegAcc[2] < 0.7 {
		t.Errorf("regression accuracy at 2%% noise = %v, want >= 0.7", rows[0].RegAcc[2])
	}
}

func TestRunSynthRequiresPretrained(t *testing.T) {
	if _, err := RunSynth(SynthConfig{NumParams: 1}); err == nil {
		t.Fatal("missing pretrained should error")
	}
}

func TestRunSynthTwoParams(t *testing.T) {
	rows, err := RunSynth(SynthConfig{
		NumParams:   2,
		NoiseLevels: []float64{0.10},
		Functions:   10,
		Seed:        2,
		Pretrained:  testPretrained(),
		Adapt:       quickAdapt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Functions < 8 {
		t.Fatalf("only %d/10 two-parameter functions modeled", rows[0].Functions)
	}
}

func TestRunSynthDeterministic(t *testing.T) {
	cfg := SynthConfig{
		NumParams:   1,
		NoiseLevels: []float64{0.5},
		Functions:   8,
		Seed:        3,
		Pretrained:  testPretrained(),
		Adapt:       quickAdapt,
	}
	a, err := RunSynth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSynth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].RegAcc != b[0].RegAcc || a[0].AdaptAcc != b[0].AdaptAcc {
		t.Fatal("same seed produced different sweep results")
	}
}

func TestRunCaseStudyRELeARN(t *testing.T) {
	// RELeARN is the cheapest case study (9 points, 3 kernels) and the
	// calm-noise regime: both modelers should land close to the truth.
	res, err := RunCaseStudy(apps.RELeARN(), CaseConfig{
		Pretrained: testPretrained(),
		Adapt:      quickAdapt,
		Seed:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.App != "RELeARN" || len(res.Kernels) != 3 {
		t.Fatalf("result = %+v", res)
	}
	if res.Noise.Mean > 0.02 {
		t.Fatalf("RELeARN noise mean %v, want < 2%%", res.Noise.Mean)
	}
	if math.IsNaN(res.RegMedianErr) || math.IsNaN(res.AdaptMedianErr) {
		t.Fatal("median errors missing")
	}
	if res.RegMedianErr > 30 {
		t.Fatalf("regression error %v%% too high for a calm case study", res.RegMedianErr)
	}
	if res.AdaptTime <= res.RegTime {
		t.Fatal("adaptive modeling should cost more time than regression (it retrains the DNN)")
	}
}

func TestRunCaseStudyRequiresPretrained(t *testing.T) {
	if _, err := RunCaseStudy(apps.RELeARN(), CaseConfig{}); err == nil {
		t.Fatal("missing pretrained should error")
	}
}

func TestNoiseEstimatorError(t *testing.T) {
	errFrac := NoiseEstimatorError(5, 20, nil)
	// The paper reports 4.93% average error; our estimator lands under 15%
	// across the full level range (the high-noise bias dominates).
	if errFrac > 0.15 {
		t.Fatalf("noise estimator mean relative error %.1f%%, want <= 15%%", errFrac*100)
	}
	if errFrac <= 0 {
		t.Fatal("estimator error should be positive")
	}
}

func TestSynthConfigDefaults(t *testing.T) {
	c := SynthConfig{}.withDefaults()
	if c.PointsPerParam != 5 || c.Reps != 5 || c.EvalPoints != 4 ||
		c.Functions != 100 || c.NoiseThreshold != 0.20 || c.Workers < 1 ||
		len(c.NoiseLevels) != 7 {
		t.Fatalf("defaults = %+v", c)
	}
}

// TestFindCrossover locates the crossover of a small sweep. (The name is kept
// from FindCrossover, a RunSynth + CrossoverFromRows wrapper that is gone.)
func TestFindCrossover(t *testing.T) {
	rows, err := RunSynth(SynthConfig{
		NumParams:   1,
		NoiseLevels: []float64{0.02, 0.5, 1.0},
		Functions:   16,
		Seed:        9,
		Pretrained:  testPretrained(),
		Adapt:       quickAdapt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Level is either NaN (no crossing) or inside the swept range.
	if level := CrossoverFromRows(rows, 2); !math.IsNaN(level) && (level < 0.02 || level > 1.0) {
		t.Fatalf("crossover level %v outside swept range", level)
	}
	// DNN-only accuracies must be tracked.
	for _, r := range rows {
		for _, a := range r.DNNAcc {
			if a < 0 || a > 1 {
				t.Fatalf("DNN accuracy %v out of range", a)
			}
		}
	}
}

func TestFindCrossoverBadBucketClamps(t *testing.T) {
	// DNN behind at 25%, ahead at 75% in bucket 2 only: an out-of-range
	// bucket must give bucket 2's crossing.
	rows := []SynthRow{
		{Noise: 0.25, RegAcc: [3]float64{0.75, 0.75, 0.75}, DNNAcc: [3]float64{0.75, 0.75, 0.25}},
		{Noise: 0.75, RegAcc: [3]float64{0.75, 0.75, 0.25}, DNNAcc: [3]float64{0.75, 0.75, 0.75}},
	}
	want := CrossoverFromRows(rows, 2)
	if want != 0.5 {
		t.Fatalf("bucket 2 crossover = %v, want 0.5", want)
	}
	for _, bucket := range []int{-1, 99} {
		if got := CrossoverFromRows(rows, bucket); got != want {
			t.Fatalf("bucket %d crossover = %v, want it clamped to bucket 2's %v", bucket, got, want)
		}
	}
}
