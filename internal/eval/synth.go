// Package eval implements the paper's evaluation harness: the synthetic
// accuracy and predictive-power sweeps of Fig. 3, the case-study prediction,
// noise and timing analyses of Figs. 4–6, and the noise-estimator validation
// quoted in Section IV-B. The CLI tools in cmd/evalsynth and cmd/evalcases
// are thin wrappers around this package, as are the benchmarks in
// bench_test.go.
package eval

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"extrapdnn/internal/core"
	"extrapdnn/internal/dnnmodel"
	"extrapdnn/internal/parallel"
	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/regression"
	"extrapdnn/internal/stats"
	"extrapdnn/internal/synth"
)

// BucketThresholds are the lead-exponent distances of the accuracy buckets
// in Fig. 3: a model counts as correct in bucket b when its lead-exponent
// distance to the synthetic baseline is at most BucketThresholds[b].
var BucketThresholds = [3]float64{0.25, 1.0 / 3, 0.5}

// SynthConfig configures one synthetic sweep (one of the panels of Fig. 3).
type SynthConfig struct {
	NumParams      int       // m = 1, 2 or 3
	NoiseLevels    []float64 // e.g. 0.02, 0.05, 0.10, 0.20, 0.50, 0.75, 1.00
	Functions      int       // test functions per noise level (paper: 100000)
	PointsPerParam int       // default 5
	Reps           int       // default 5
	EvalPoints     int       // default 4 (P1+..P4+)
	Seed           int64
	Pretrained     *dnnmodel.Modeler
	Adapt          dnnmodel.AdaptConfig
	// DisableAdaptation uses the pretrained network without per-level
	// retraining — the domain-adaptation ablation of DESIGN.md §5.
	DisableAdaptation bool
	// NoiseThreshold is the adaptive switch-off level for the regression
	// modeler (default core.DefaultNoiseThreshold = 0.20).
	NoiseThreshold float64
	Workers        int // default GOMAXPROCS
}

func (c SynthConfig) withDefaults() SynthConfig {
	if c.PointsPerParam <= 0 {
		c.PointsPerParam = 5
	}
	if c.Reps <= 0 {
		c.Reps = 5
	}
	if c.EvalPoints <= 0 {
		c.EvalPoints = 4
	}
	if c.Functions <= 0 {
		c.Functions = 100
	}
	if c.NoiseThreshold == 0 {
		c.NoiseThreshold = 0.20
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if len(c.NoiseLevels) == 0 {
		c.NoiseLevels = []float64{0.02, 0.05, 0.10, 0.20, 0.50, 0.75, 1.00}
	}
	return c
}

// SynthRow is the outcome of one noise level: accuracy-bucket fractions and
// per-evaluation-point median relative errors for the regression baseline
// and the adaptive modeler.
type SynthRow struct {
	Noise     float64
	Functions int // functions successfully modeled

	// Accuracy: fraction of correct models per bucket (d <= 1/4, 1/3, 1/2).
	// DNNAcc is the DNN modeler alone (used by the threshold/crossover
	// analysis of Section IV-A); AdaptAcc is the full adaptive selection.
	RegAcc   [3]float64
	DNNAcc   [3]float64
	AdaptAcc [3]float64

	// Predictive power: median relative error in percent at P1+..P4+,
	// with bootstrap 99% confidence intervals.
	RegErr     []float64
	AdaptErr   []float64
	RegErrCI   []stats.Interval
	AdaptErrCI []stats.Interval
}

// funcOutcome is the per-function result inside a sweep.
type funcOutcome struct {
	ok                       bool
	regHit, dnnHit, adaptHit [3]bool
	regErrs, adaptErrs       []float64
}

// RunSynth runs the synthetic evaluation and returns one row per noise
// level. cfg.Pretrained must be set.
func RunSynth(cfg SynthConfig) ([]SynthRow, error) {
	cfg = cfg.withDefaults()
	if cfg.Pretrained == nil {
		return nil, fmt.Errorf("eval: SynthConfig.Pretrained is required")
	}
	rows := make([]SynthRow, 0, len(cfg.NoiseLevels))
	for li, level := range cfg.NoiseLevels {
		row, err := runSynthLevel(cfg, level, cfg.Seed+int64(li)*7919)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runSynthLevel evaluates one noise level.
func runSynthLevel(cfg SynthConfig, level float64, seed int64) (SynthRow, error) {
	// Domain adaptation once per level: the synthetic tasks of a level share
	// the repetition count and noise range, which is what adaptation keys on.
	shared := cfg.Pretrained
	if !cfg.DisableAdaptation {
		task := dnnmodel.TaskInfo{
			Reps:     cfg.Reps,
			NoiseMin: math.Max(0, level-0.1),
			NoiseMax: math.Min(1, level+0.1),
		}
		shared = cfg.Pretrained.DomainAdapt(rand.New(rand.NewSource(seed)), task, cfg.Adapt)
	}
	// The adaptive modeler selects exactly as core does, on the level's
	// network instead of a per-task adaptation.
	modeler, err := core.New(shared, core.Config{
		DisableAdaptation: true,
		DisableFallback:   true,
		NoiseThreshold:    cfg.NoiseThreshold,
	})
	if err != nil {
		return SynthRow{}, err
	}

	spec := synth.TaskSpec{
		NumParams:      cfg.NumParams,
		PointsPerParam: cfg.PointsPerParam,
		Reps:           cfg.Reps,
		NoiseLevel:     level,
		EvalPoints:     cfg.EvalPoints,
	}

	outcomes := make([]funcOutcome, cfg.Functions)
	parallel.ForEach(cfg.Functions, cfg.Workers, func(f int) {
		rng := rand.New(rand.NewSource(seed + int64(f)*104729 + 1))
		outcomes[f] = evalOneFunction(rng, spec, modeler)
	})
	return aggregate(level, cfg, outcomes), nil
}

// evalOneFunction generates one synthetic task and scores the regression
// modeler, the DNN modeler and the adaptive selection between them.
func evalOneFunction(rng *rand.Rand, spec synth.TaskSpec, modeler *core.Modeler) funcOutcome {
	inst := synth.GenInstance(rng, spec)

	rep, err := modeler.Model(inst.Set)
	if err != nil {
		return funcOutcome{}
	}
	// Above the noise threshold core does not run the regression modeler,
	// but the baseline column still needs its model.
	regRes := rep.Regression
	if regRes == nil {
		res, err := regression.Model(inst.Set, regression.Options{})
		if err != nil {
			return funcOutcome{}
		}
		regRes = &res
	}
	dnnRes, adaptive := rep.DNN, rep.Model

	out := funcOutcome{ok: true}
	regDist := pmnf.LeadDistance(regRes.Model, inst.Truth)
	dnnDist := pmnf.LeadDistance(dnnRes.Model, inst.Truth)
	adaptDist := pmnf.LeadDistance(adaptive.Model, inst.Truth)
	for b, thr := range BucketThresholds {
		out.regHit[b] = regDist <= thr+1e-9
		out.dnnHit[b] = dnnDist <= thr+1e-9
		out.adaptHit[b] = adaptDist <= thr+1e-9
	}
	for e, pt := range inst.EvalPoints {
		truth := inst.EvalTruth[e]
		out.regErrs = append(out.regErrs, stats.RelativeErrorPct(regRes.Model.Eval(pt), truth))
		out.adaptErrs = append(out.adaptErrs, stats.RelativeErrorPct(adaptive.Model.Eval(pt), truth))
	}
	return out
}

// aggregate folds per-function outcomes into a SynthRow.
func aggregate(level float64, cfg SynthConfig, outcomes []funcOutcome) SynthRow {
	row := SynthRow{Noise: level}
	regErrs := make([][]float64, cfg.EvalPoints)
	adaptErrs := make([][]float64, cfg.EvalPoints)
	for _, o := range outcomes {
		if !o.ok {
			continue
		}
		row.Functions++
		for b := range BucketThresholds {
			if o.regHit[b] {
				row.RegAcc[b]++
			}
			if o.dnnHit[b] {
				row.DNNAcc[b]++
			}
			if o.adaptHit[b] {
				row.AdaptAcc[b]++
			}
		}
		for e := 0; e < cfg.EvalPoints; e++ {
			regErrs[e] = append(regErrs[e], o.regErrs[e])
			adaptErrs[e] = append(adaptErrs[e], o.adaptErrs[e])
		}
	}
	if row.Functions == 0 {
		return row
	}
	n := float64(row.Functions)
	for b := range BucketThresholds {
		row.RegAcc[b] /= n
		row.DNNAcc[b] /= n
		row.AdaptAcc[b] /= n
	}
	ciRng := rand.New(rand.NewSource(level1e6(level) + cfg.Seed))
	for e := 0; e < cfg.EvalPoints; e++ {
		row.RegErr = append(row.RegErr, stats.Median(regErrs[e]))
		row.AdaptErr = append(row.AdaptErr, stats.Median(adaptErrs[e]))
		row.RegErrCI = append(row.RegErrCI, stats.BootstrapCI(regErrs[e], stats.Median, 200, 0.99, ciRng))
		row.AdaptErrCI = append(row.AdaptErrCI, stats.BootstrapCI(adaptErrs[e], stats.Median, 200, 0.99, ciRng))
	}
	return row
}

func level1e6(level float64) int64 { return int64(level * 1e6) }
