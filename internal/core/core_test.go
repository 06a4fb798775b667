package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"extrapdnn/internal/dnnmodel"
	"extrapdnn/internal/measurement"
	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/synth"
)

var (
	pretrainedOnce sync.Once
	pretrained     *dnnmodel.Modeler
)

func testPretrained() *dnnmodel.Modeler {
	pretrainedOnce.Do(func() {
		pretrained, _ = dnnmodel.Pretrain(dnnmodel.PretrainConfig{
			Hidden:          dnnmodel.TinyTopology,
			SamplesPerClass: 120,
			Epochs:          6,
			Seed:            1,
		})
	})
	return pretrained
}

// quietAdapt keeps per-test adaptation cheap.
var quietAdapt = dnnmodel.AdaptConfig{SamplesPerClass: 40, Epochs: 1}

func noisySet(rng *rand.Rand, level float64, f func(x float64) float64) *measurement.Set {
	s := &measurement.Set{}
	for _, x := range []float64{4, 8, 16, 32, 64} {
		vals := make([]float64, 5)
		for r := range vals {
			vals[r] = f(x) * synth.NoiseFactor(rng, level)
		}
		s.Data = append(s.Data, measurement.Measurement{Point: measurement.Point{x}, Values: vals})
	}
	return s
}

func TestNewRequiresPretrained(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil pretrained without DisableDNN should error")
	}
	if _, err := New(nil, Config{DisableDNN: true}); err != nil {
		t.Fatalf("DisableDNN should allow nil pretrained: %v", err)
	}
}

func TestModelCalmDataUsesBothAndFitsWell(t *testing.T) {
	m, err := New(testPretrained(), Config{Adapt: quietAdapt, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	set := noisySet(rng, 0.02, func(x float64) float64 { return 5 + 2*x })
	rep, err := m.Model(set)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsedDNN || !rep.UsedRegression {
		t.Fatalf("calm data should use both modelers: %+v", rep)
	}
	lead := rep.Model.Model.LeadExponents()
	if d := pmnf.Distance(lead[0], pmnf.Exponents{I: 1}); d > 0.26 {
		t.Fatalf("calm linear data modeled as %v", rep.Model.Model)
	}
	if rep.Durations.Total <= 0 {
		t.Fatal("durations not recorded")
	}
}

func TestModelNoisyDataSwitchesOffRegression(t *testing.T) {
	m, err := New(testPretrained(), Config{Adapt: quietAdapt, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	set := noisySet(rng, 0.8, func(x float64) float64 { return 5 + 2*x })
	rep, err := m.Model(set)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedRegression {
		t.Fatalf("noise %.0f%% above threshold should switch regression off", rep.Noise.Global*100)
	}
	if !rep.UsedDNN || !rep.SelectedDNN {
		t.Fatal("noisy data must be modeled by the DNN")
	}
}

func TestModelDisableDNN(t *testing.T) {
	m, err := New(nil, Config{DisableDNN: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	set := noisySet(rng, 0.02, func(x float64) float64 { return 3 + x*x })
	rep, err := m.Model(set)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedDNN || rep.SelectedDNN || !rep.UsedRegression {
		t.Fatalf("DisableDNN violated: %+v", rep)
	}
	lead := rep.Model.Model.LeadExponents()
	if d := pmnf.Distance(lead[0], pmnf.Exponents{I: 2}); d > 0.26 {
		t.Fatalf("quadratic data modeled as %v", rep.Model.Model)
	}
}

func TestModelNegativeThresholdDisablesRegression(t *testing.T) {
	m, err := New(testPretrained(), Config{NoiseThreshold: -1, Adapt: quietAdapt, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	set := noisySet(rng, 0.0, func(x float64) float64 { return 1 + x })
	rep, err := m.Model(set)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedRegression {
		t.Fatal("negative threshold must disable the regression modeler")
	}
}

func TestModelDisableAdaptation(t *testing.T) {
	m, err := New(testPretrained(), Config{DisableAdaptation: true, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	set := noisySet(rng, 0.1, func(x float64) float64 { return 2 + 3*x })
	rep, err := m.Model(set)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Durations.Adapt > rep.Durations.DNN*100 {
		t.Fatal("adaptation skipped but took substantial time")
	}
	if !rep.UsedDNN {
		t.Fatal("DNN should still run without adaptation")
	}
}

func TestModelInvalidSet(t *testing.T) {
	m, _ := New(testPretrained(), Config{Adapt: quietAdapt})
	if rep, err := m.Model(&measurement.Set{}); err == nil || rep.Noise.PointLevels != nil {
		t.Fatalf("invalid set: err %v, noise %+v; want an error and no noise analysis", err, rep.Noise)
	}
	// A valid set whose line is too short fails after the noise analysis,
	// and the report keeps it.
	short := noisySet(rand.New(rand.NewSource(1)), 0.1, func(x float64) float64 { return x })
	short.Data = short.Data[:4]
	if rep, err := m.Model(short); err == nil || rep.Noise.Global == 0 || len(rep.Noise.PointLevels) != 4 {
		t.Fatalf("short line: err %v, noise %+v; want an error and the noise analysis", err, rep.Noise)
	}
}

func TestModelSelectsSmallerSMAPE(t *testing.T) {
	m, err := New(testPretrained(), Config{Adapt: quietAdapt, Seed: 7, NoiseThreshold: 1.9})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	set := noisySet(rng, 0.05, func(x float64) float64 { return 4 + 0.5*x*math.Log2(x) })
	rep, err := m.Model(set)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regression != nil && rep.DNN != nil {
		want := math.Min(rep.Regression.SMAPE, rep.DNN.SMAPE)
		if rep.Model.SMAPE != want {
			t.Fatalf("selected SMAPE %v, want %v", rep.Model.SMAPE, want)
		}
	}
}

func TestModelTwoParameters(t *testing.T) {
	m, err := New(testPretrained(), Config{Adapt: quietAdapt, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	inst := synth.GenInstance(rng, synth.TaskSpec{
		NumParams: 2, PointsPerParam: 5, Reps: 5, NoiseLevel: 0.05, EvalPoints: 2,
	})
	rep, err := m.Model(inst.Set)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Model.Model.NumParams() != 2 {
		t.Fatalf("model has %d params", rep.Model.Model.NumParams())
	}
}

func TestModelDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	set := noisySet(rng, 0.3, func(x float64) float64 { return 1 + x })
	run := func() string {
		m, _ := New(testPretrained(), Config{Adapt: quietAdapt, Seed: 42})
		rep, err := m.Model(set)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Model.Model.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced different models:\n%s\n%s", a, b)
	}
}

func TestConfigThresholdDefault(t *testing.T) {
	if (Config{}).threshold() != DefaultNoiseThreshold {
		t.Fatal("zero threshold should default")
	}
	if (Config{NoiseThreshold: 0.5}).threshold() != 0.5 {
		t.Fatal("explicit threshold ignored")
	}
}

func TestNewTopKOverride(t *testing.T) {
	m, err := New(testPretrained(), Config{TopK: 2, Adapt: quietAdapt, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	set := noisySet(rng, 0.05, func(x float64) float64 { return 1 + x })
	if _, err := m.Model(set); err != nil {
		t.Fatal(err)
	}
}

func TestModelNoiseClampsAdaptationRange(t *testing.T) {
	// Extremely noisy measurements (estimated > 100%) must still model: the
	// adaptation range is clamped at 100%.
	m, err := New(testPretrained(), Config{Adapt: quietAdapt, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	set := noisySet(rng, 1.8, func(x float64) float64 { return 5 + 2*x })
	rep, err := m.Model(set)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Noise.Max <= 1 {
		t.Skip("draw did not exceed 100% noise") // level 1.8 virtually always does
	}
	if !rep.UsedDNN {
		t.Fatal("extreme noise must still be modeled by the DNN")
	}
}

func TestModelReportDurations(t *testing.T) {
	m, err := New(testPretrained(), Config{Adapt: quietAdapt, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	set := noisySet(rng, 0.02, func(x float64) float64 { return 2 + x })
	rep, err := m.Model(set)
	if err != nil {
		t.Fatal(err)
	}
	d := rep.Durations
	if d.Adapt <= 0 || d.DNN <= 0 || d.Regression <= 0 {
		t.Fatalf("missing duration components: %+v", d)
	}
	if d.Total < d.Adapt+d.DNN {
		t.Fatalf("total %v below sum of parts %+v", d.Total, d)
	}
}
