package dnnmodel

import (
	"math/rand"
	"runtime"
	"testing"

	"extrapdnn/internal/measurement"
	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/preprocess"
	"extrapdnn/internal/synth"
)

// testModeler pretrains a small modeler once; tests share it because
// pretraining dominates test runtime.
var testModeler *Modeler

func getTestModeler(t *testing.T) *Modeler {
	t.Helper()
	if testModeler == nil {
		m, stats := Pretrain(PretrainConfig{
			Hidden:          TinyTopology,
			SamplesPerClass: 120,
			Epochs:          6,
			Seed:            1,
		})
		if stats.FinalLoss() >= stats.EpochLoss[0] {
			t.Fatalf("pretraining loss did not decrease: %v", stats.EpochLoss)
		}
		testModeler = m
	}
	return testModeler
}

func TestBuildDatasetShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, labels := BuildDataset(rng, TrainSpec{SamplesPerClass: 3, Reps: 5, NoiseMax: 0.5})
	if x.Rows() != len(labels) {
		t.Fatalf("rows %d vs labels %d", x.Rows(), len(labels))
	}
	if x.Rows() < pmnf.NumClasses*2 {
		t.Fatalf("only %d samples generated", x.Rows())
	}
	if x.Cols() != preprocess.InputSize {
		t.Fatalf("width %d, want %d", x.Cols(), preprocess.InputSize)
	}
	// Every class must appear.
	seen := map[int]bool{}
	for _, l := range labels {
		seen[l] = true
	}
	if len(seen) != pmnf.NumClasses {
		t.Fatalf("only %d classes in dataset", len(seen))
	}
}

// TestBuildDatasetDeterministic pins the determinism contract of the
// parallel dataset builder: a given parent seed yields one dataset,
// bit-identical regardless of GOMAXPROCS or goroutine scheduling, because the
// parent rng is consumed only for per-class sub-seeds drawn sequentially
// before any worker starts and class blocks are concatenated in class order.
func TestBuildDatasetDeterministic(t *testing.T) {
	spec := TrainSpec{SamplesPerClass: 4, Reps: 5, NoiseMax: 0.5}
	build := func() ([]float64, []int) {
		x, labels := BuildDataset(rand.New(rand.NewSource(11)), spec)
		return x.Data(), labels
	}
	baseX, baseLabels := build()

	for _, procs := range []int{1, 2, 7} {
		prev := runtime.GOMAXPROCS(procs)
		x, labels := build()
		runtime.GOMAXPROCS(prev)
		for i, v := range x {
			if v != baseX[i] {
				t.Fatalf("GOMAXPROCS=%d: sample value %d differs", procs, i)
			}
		}
		for i, l := range labels {
			if l != baseLabels[i] {
				t.Fatalf("GOMAXPROCS=%d: label %d differs", procs, i)
			}
		}
	}

	// Labels must come out grouped by class in class order.
	for i := 1; i < len(baseLabels); i++ {
		if baseLabels[i] < baseLabels[i-1] {
			t.Fatalf("labels not in class order at %d: %d after %d", i, baseLabels[i], baseLabels[i-1])
		}
	}
}

func TestBuildDatasetWithFixedValues(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := [][]float64{{8, 64, 512, 4096, 32768}}
	x, labels := BuildDataset(rng, TrainSpec{SamplesPerClass: 2, Reps: 5, ParamValues: vals})
	if x.Rows() != pmnf.NumClasses*2 || len(labels) != x.Rows() {
		t.Fatalf("rows = %d", x.Rows())
	}
}

func TestPretrainLearnsAboveChance(t *testing.T) {
	m := getTestModeler(t)
	// Evaluate on fresh low-noise data: accuracy must clearly beat the 1/43
	// chance level.
	rng := rand.New(rand.NewSource(4))
	x, labels := BuildDataset(rng, TrainSpec{SamplesPerClass: 10, Reps: 5, NoiseMax: 0.05})
	acc := m.Net.Accuracy(x, labels)
	// Chance is 1/43 ≈ 2.3%; the tiny test network must clearly beat it.
	if acc < 0.08 {
		t.Fatalf("held-out accuracy %v barely above chance (1/43)", acc)
	}
	// The metric that matters downstream: one of the top-3 classes is within
	// lead-exponent distance 1/4 of the truth.
	close := 0
	for r := 0; r < x.Rows(); r++ {
		truth := pmnf.Class(labels[r])
		for _, c := range m.Net.TopK(x.Row(r), 3) {
			if pmnf.Distance(pmnf.Class(c), truth) <= 0.25+1e-9 {
				close++
				break
			}
		}
	}
	top3Close := float64(close) / float64(x.Rows())
	if top3Close < 0.4 {
		t.Fatalf("top-3-within-1/4 = %v, want >= 0.4", top3Close)
	}
	t.Logf("held-out exact-class accuracy: %.1f%%, top-3 within 1/4: %.1f%%", acc*100, top3Close*100)
}

func TestModelSingleParameterNoiseless(t *testing.T) {
	m := getTestModeler(t)
	// Even with an imperfect classifier, the SMAPE-based selection over the
	// top-3 hypotheses must produce a model that fits the data well.
	e := pmnf.Exponents{I: 1, J: 0}
	set := &measurement.Set{}
	for _, x := range []float64{4, 8, 16, 32, 64} {
		set.Data = append(set.Data, measurement.Measurement{
			Point:  measurement.Point{x},
			Values: []float64{10 + 2*e.Eval(x)},
		})
	}
	res, err := m.Model(set)
	if err != nil {
		t.Fatal(err)
	}
	if res.SMAPE > 25 {
		t.Fatalf("DNN model SMAPE %v too high (model %v)", res.SMAPE, res.Model)
	}
}

func TestModelInvalidSet(t *testing.T) {
	m := getTestModeler(t)
	if _, err := m.Model(&measurement.Set{}); err != nil {
		return
	}
	t.Fatal("expected error for empty set")
}

func TestDomainAdaptImprovesTaskAccuracy(t *testing.T) {
	m := getTestModeler(t)
	rng := rand.New(rand.NewSource(5))
	task := TaskInfo{
		ParamValues: [][]float64{{8, 64, 512, 4096, 32768}},
		Reps:        5,
		NoiseMin:    0.2,
		NoiseMax:    0.4,
	}
	adapted := m.DomainAdapt(rng, task, AdaptConfig{SamplesPerClass: 60, Epochs: 2})

	// Receiver must be untouched.
	if adapted.Net == m.Net {
		t.Fatal("DomainAdapt must not share the network")
	}
	if m.Net.Layers[0].W.At(0, 0) == adapted.Net.Layers[0].W.At(0, 0) &&
		m.Net.Layers[0].W.Equal(adapted.Net.Layers[0].W, 0) {
		t.Fatal("adaptation did not change the weights")
	}

	// On data drawn from the task distribution, the adapted network should
	// classify at least as well as the generic one (averaged over a sample).
	evalRng := rand.New(rand.NewSource(6))
	x, labels := BuildDataset(evalRng, TrainSpec{
		SamplesPerClass: 8,
		Reps:            task.Reps,
		NoiseMin:        task.NoiseMin,
		NoiseMax:        task.NoiseMax,
		ParamValues:     task.ParamValues,
	})
	accBefore := m.Net.Accuracy(x, labels)
	accAfter := adapted.Net.Accuracy(x, labels)
	t.Logf("accuracy generic %.3f → adapted %.3f", accBefore, accAfter)
	if accAfter < accBefore-0.05 {
		t.Fatalf("domain adaptation degraded accuracy: %.3f -> %.3f", accBefore, accAfter)
	}
}

func TestModelMultiParameter(t *testing.T) {
	m := getTestModeler(t)
	rng := rand.New(rand.NewSource(7))
	inst := synth.GenInstance(rng, synth.TaskSpec{
		NumParams: 2, PointsPerParam: 5, Reps: 5, NoiseLevel: 0.05, EvalPoints: 2,
	})
	res, err := m.Model(inst.Set)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model.NumParams() != 2 {
		t.Fatalf("model has %d params", res.Model.NumParams())
	}
}

func TestPretrainDefaultsApplied(t *testing.T) {
	cfg := PretrainConfig{}.withDefaults()
	if cfg.SamplesPerClass != 500 || cfg.Epochs != 3 || cfg.Reps != 5 || cfg.BatchSize != 64 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if len(cfg.Hidden) != len(DefaultTopology) {
		t.Fatal("default topology not applied")
	}
	a := AdaptConfig{}.withDefaults()
	if a.SamplesPerClass != 200 || a.Epochs != 1 {
		t.Fatalf("adapt defaults = %+v", a)
	}
}
