package extrapdnn

// One benchmark per table/figure of the paper (see DESIGN.md §3), plus
// ablation and microbenchmarks. Each figure benchmark runs a scaled-down but
// shape-preserving version of the corresponding experiment and reports the
// headline quantities via b.ReportMetric, so `go test -bench=.` regenerates
// the qualitative result of every figure. The full-size regenerations live
// in cmd/evalsynth and cmd/evalcases.
//
// Hot-path baselines (Pretrain, DomainAdaptation, MatMul256) are recorded in
// docs/PERFORMANCE.md; the allocation-regression gates for the training loop
// live in internal/nn and the fused-kernel microbenchmarks in internal/mat.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"extrapdnn/internal/apps"
	"extrapdnn/internal/dnnmodel"
	"extrapdnn/internal/eval"
	"extrapdnn/internal/mat"
	"extrapdnn/internal/measurement"
	"extrapdnn/internal/nn"
	"extrapdnn/internal/noise"
	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/preprocess"
	"extrapdnn/internal/regression"
	"extrapdnn/internal/synth"
)

var (
	benchOnce sync.Once
	benchPre  *dnnmodel.Modeler
)

// benchPretrained shares one small pretrained network across benchmarks;
// pretraining itself is measured separately in BenchmarkPretrain.
func benchPretrained() *dnnmodel.Modeler {
	benchOnce.Do(func() {
		benchPre, _ = dnnmodel.Pretrain(dnnmodel.PretrainConfig{
			Hidden:          []int{96, 64},
			SamplesPerClass: 250,
			Epochs:          4,
			Seed:            1,
		})
	})
	return benchPre
}

var benchAdapt = dnnmodel.AdaptConfig{SamplesPerClass: 60, Epochs: 1}

// benchSynth runs one scaled-down Fig. 3 sweep and reports the adaptive and
// regression accuracy (bucket d <= 1/2) and P4+ errors at the highest level.
func benchSynth(b *testing.B, m int, levels []float64) {
	pre := benchPretrained()
	b.ResetTimer()
	var last eval.SynthRow
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunSynth(eval.SynthConfig{
			NumParams:   m,
			NoiseLevels: levels,
			Functions:   12,
			Seed:        int64(i + 1),
			Pretrained:  pre,
			Adapt:       benchAdapt,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = rows[len(rows)-1]
	}
	b.ReportMetric(last.RegAcc[2]*100, "reg-acc-d1/2-%")
	b.ReportMetric(last.AdaptAcc[2]*100, "adapt-acc-d1/2-%")
	b.ReportMetric(last.RegErr[3], "reg-P4err-%")
	b.ReportMetric(last.AdaptErr[3], "adapt-P4err-%")
}

// Fig. 3(a)/(d): one-parameter accuracy and predictive power, low noise.
func BenchmarkFig3aAccuracy1P(b *testing.B) { benchSynth(b, 1, []float64{0.02}) }

// Fig. 3(a)/(d) at the high-noise end, where the adaptive modeler wins.
func BenchmarkFig3dPredPower1P(b *testing.B) { benchSynth(b, 1, []float64{0.75}) }

// Fig. 3(b)/(e): two parameters.
func BenchmarkFig3bAccuracy2P(b *testing.B) { benchSynth(b, 2, []float64{0.02}) }

func BenchmarkFig3ePredPower2P(b *testing.B) { benchSynth(b, 2, []float64{0.75}) }

// Fig. 3(c)/(f): three parameters.
func BenchmarkFig3cAccuracy3P(b *testing.B) { benchSynth(b, 3, []float64{0.02}) }

func BenchmarkFig3fPredPower3P(b *testing.B) { benchSynth(b, 3, []float64{0.75}) }

// Fig. 4: case-study prediction error (RELeARN, the cheapest case study;
// cmd/evalcases runs all three).
func BenchmarkFig4CaseStudyPrediction(b *testing.B) {
	pre := benchPretrained()
	b.ResetTimer()
	var res eval.CaseResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.RunCaseStudy(apps.RELeARN(), eval.CaseConfig{
			Pretrained: pre,
			Adapt:      benchAdapt,
			Seed:       int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.RegMedianErr, "reg-err-%")
	b.ReportMetric(res.AdaptMedianErr, "adapt-err-%")
}

// Fig. 5: noise-level analysis over the generated case-study measurements.
func BenchmarkFig5NoiseDistributions(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sets := make([]*measurement.Set, 0)
	for _, app := range apps.All() {
		for _, k := range app.Kernels {
			sets = append(sets, app.Generate(rng, k))
		}
	}
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		for _, s := range sets {
			mean = noise.Analyze(s).Mean
		}
	}
	b.ReportMetric(mean*100, "last-mean-noise-%")
}

// Fig. 6: modeling-time comparison on one kernel — regression vs adaptive
// (the adaptive time is dominated by domain adaptation).
func BenchmarkFig6ModelingTime(b *testing.B) {
	pre := benchPretrained()
	app := apps.RELeARN()
	rng := rand.New(rand.NewSource(2))
	set := app.Generate(rng, app.Kernels[0])

	b.Run("regression", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := regression.Model(set, regression.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("adaptive", func(b *testing.B) {
		task := dnnmodel.TaskInfo{Reps: 2, NoiseMin: 0, NoiseMax: 0.01}
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(int64(i)))
			adapted := pre.DomainAdapt(rng, task, benchAdapt)
			if _, err := adapted.Model(set); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Section IV-B: noise-estimator validation.
func BenchmarkNoiseEstimatorError(b *testing.B) {
	var errFrac float64
	for i := 0; i < b.N; i++ {
		errFrac = eval.NoiseEstimatorError(int64(i+1), 10, nil)
	}
	b.ReportMetric(errFrac*100, "est-err-%")
}

// Ablation: domain adaptation on vs off (accuracy of the DNN modeler on a
// high-noise task distribution).
func BenchmarkAblationDomainAdaptation(b *testing.B) {
	pre := benchPretrained()
	task := dnnmodel.TaskInfo{
		ParamValues: [][]float64{{8, 64, 512, 4096, 32768}},
		Reps:        5,
		NoiseMin:    0.4,
		NoiseMax:    0.6,
	}
	evalRng := rand.New(rand.NewSource(3))
	x, labels := dnnmodel.BuildDataset(evalRng, dnnmodel.TrainSpec{
		SamplesPerClass: 5,
		Reps:            5, NoiseMin: 0.4, NoiseMax: 0.6,
		ParamValues: task.ParamValues,
	})
	var accOff, accOn float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		adapted := pre.DomainAdapt(rng, task, benchAdapt)
		accOff = pre.Net.Accuracy(x, labels)
		accOn = adapted.Net.Accuracy(x, labels)
	}
	b.ReportMetric(accOff*100, "generic-acc-%")
	b.ReportMetric(accOn*100, "adapted-acc-%")
}

// Ablation: optimizer choice for pretraining (final loss after a fixed
// budget; the paper uses AdaMax).
func BenchmarkAblationOptimizers(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x, labels := dnnmodel.BuildDataset(rng, dnnmodel.TrainSpec{SamplesPerClass: 60, Reps: 5, NoiseMax: 1})
	for _, opt := range []nn.OptimizerKind{nn.AdaMax, nn.Adam, nn.SGD} {
		b.Run(opt.String(), func(b *testing.B) {
			var loss float64
			for i := 0; i < b.N; i++ {
				net := nn.NewNetwork([]int{preprocess.InputSize, 64, 48, pmnf.NumClasses},
					rand.New(rand.NewSource(5)))
				lr := 0.0
				if opt == nn.SGD {
					lr = 0.05
				}
				stats := net.Train(x, labels, nn.TrainOptions{
					Epochs: 2, Optimizer: opt, LearningRate: lr,
					Rng: rand.New(rand.NewSource(6)),
				})
				loss = stats.FinalLoss()
			}
			b.ReportMetric(loss, "final-loss")
		})
	}
}

// --- Microbenchmarks for the substrates ---

func BenchmarkLeastSquares(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	a := mat.New(125, 4)
	y := make([]float64, 125)
	for i := range a.Data() {
		a.Data()[i] = rng.NormFloat64()
	}
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mat.LeastSquares(a, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPreprocessEncode(b *testing.B) {
	xs := []float64{8, 64, 512, 4096, 32768}
	vs := []float64{1.2, 8.1, 60.5, 470.3, 3800.9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := preprocess.Encode(xs, vs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegressionModel3P(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	inst := synth.GenInstance(rng, synth.TaskSpec{
		NumParams: 3, PointsPerParam: 5, Reps: 5, NoiseLevel: 0.1, EvalPoints: 1,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := regression.Model(inst.Set, regression.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDomainAdaptation(b *testing.B) {
	pre := benchPretrained()
	task := dnnmodel.TaskInfo{Reps: 5, NoiseMin: 0.1, NoiseMax: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		pre.DomainAdapt(rng, task, benchAdapt)
	}
}

func BenchmarkNoiseAnalyze(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	app := apps.Kripke()
	set := app.Generate(rng, app.Kernels[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		noise.Analyze(set)
	}
}

func BenchmarkPretrain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dnnmodel.Pretrain(dnnmodel.PretrainConfig{
			Hidden:          []int{64, 48},
			SamplesPerClass: 100,
			Epochs:          1,
			Seed:            int64(i + 1),
		})
	}
}

// Ablation: restricting the regression search space to plain polynomials —
// the noise countermeasure used by several related works (Section II) —
// versus the full PMNF class set, at high noise.
func BenchmarkAblationRestrictedClasses(b *testing.B) {
	var polyOnly []pmnf.Exponents
	for _, e := range pmnf.Classes() {
		if e.J == 0 {
			polyOnly = append(polyOnly, e)
		}
	}
	for _, tc := range []struct {
		name    string
		classes []pmnf.Exponents
	}{{"full-pmnf", nil}, {"polynomials-only", polyOnly}} {
		b.Run(tc.name, func(b *testing.B) {
			var hits, total int
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i + 1)))
				for f := 0; f < 20; f++ {
					inst := synth.GenInstance(rng, synth.TaskSpec{
						NumParams: 1, PointsPerParam: 5, Reps: 5, NoiseLevel: 0.75, EvalPoints: 1,
					})
					res, err := regression.Model(inst.Set, regression.Options{Classes: tc.classes})
					if err != nil {
						continue
					}
					total++
					if pmnf.LeadDistance(res.Model, inst.Truth) <= 0.5+1e-9 {
						hits++
					}
				}
			}
			if total > 0 {
				b.ReportMetric(float64(hits)/float64(total)*100, "acc-d1/2-%")
			}
		})
	}
}

// Ablation: dropout regularization during pretraining.
func BenchmarkAblationDropout(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	x, labels := dnnmodel.BuildDataset(rng, dnnmodel.TrainSpec{SamplesPerClass: 60, Reps: 5, NoiseMax: 1})
	ex, elabels := dnnmodel.BuildDataset(rand.New(rand.NewSource(13)),
		dnnmodel.TrainSpec{SamplesPerClass: 10, Reps: 5, NoiseMax: 0.2})
	for _, dropout := range []float64{0, 0.2} {
		b.Run(fmt.Sprintf("dropout-%.1f", dropout), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				net := nn.NewNetwork([]int{preprocess.InputSize, 96, 64, pmnf.NumClasses},
					rand.New(rand.NewSource(14)))
				net.Train(x, labels, nn.TrainOptions{
					Epochs: 3, Dropout: dropout, Rng: rand.New(rand.NewSource(15)),
				})
				acc = net.Accuracy(ex, elabels)
			}
			b.ReportMetric(acc*100, "heldout-acc-%")
		})
	}
}
