// Package extrapdnn is a noise-resilient empirical performance modeler for
// HPC applications, reproducing Ritter et al., "Noise-Resilient Empirical
// Performance Modeling with Deep Neural Networks" (IPDPS 2021).
//
// Given a set of small-scale performance experiments — measurement points
// over execution parameters such as process count or problem size, with
// repeated measured values per point — it produces a human-readable
// performance model in Extra-P's performance model normal form (PMNF), e.g.
//
//	8.51 + 0.11*x1^(1/3)*x2*x3^(4/5)
//
// Two modelers are combined adaptively: the classic regression modeler
// (exhaustive PMNF hypothesis search, best on calm data) and a DNN modeler
// (a 43-class exponent classifier retrained per task via domain adaptation,
// far more robust on noisy data). A noise-estimation heuristic decides which
// modelers run; cross-validated SMAPE picks the final model.
//
// Typical use:
//
//	m, err := extrapdnn.NewAdaptiveModeler(extrapdnn.Options{Seed: 1})
//	...
//	set, err := extrapdnn.ReadMeasurementsText(file, 2)
//	report, err := m.Model(set)
//	fmt.Println(report.Model.Model) // the performance model
package extrapdnn

import (
	"context"
	"fmt"
	"io"

	"extrapdnn/internal/adaptcache"
	"extrapdnn/internal/core"
	"extrapdnn/internal/dnnmodel"
	"extrapdnn/internal/measurement"
	"extrapdnn/internal/modelregistry"
	"extrapdnn/internal/nn"
	"extrapdnn/internal/noise"
	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/regression"
	"extrapdnn/internal/stats"
)

// Re-exported data types. They alias the internal implementations so values
// flow freely between the public API and the internal packages.
type (
	// Point is one measurement point P(x1..xm).
	Point = measurement.Point
	// Measurement is the repeated measured values at one point.
	Measurement = measurement.Measurement
	// MeasurementSet is a complete experiment set for one modeling task.
	MeasurementSet = measurement.Set
	// Model is a PMNF performance model.
	Model = pmnf.Model
	// Exponents is one (i, j) exponent pair of a PMNF factor.
	Exponents = pmnf.Exponents
	// NoiseAnalysis summarizes the noise found in a measurement set.
	NoiseAnalysis = noise.Analysis
	// Report is the full outcome of one adaptive modeling run.
	Report = core.Report
	// Resilience is the fault-tolerance record of one modeling run: adaptation
	// attempts and the degradation path taken (Report.Resilience).
	Resilience = core.Resilience
	// FallbackPath identifies the degradation path of one modeling run.
	FallbackPath = core.FallbackPath
	// ModelResult is a model plus its cross-validated SMAPE.
	ModelResult = regression.Result
	// Interval is a two-sided confidence interval.
	Interval = stats.Interval
)

// Options configures NewAdaptiveModeler.
type Options struct {
	// Topology selects the hidden-layer sizes of the classification network.
	// Nil uses a reduced default; PaperTopology selects the exact layer
	// sizes of the publication (slower to pretrain and adapt).
	Topology []int
	// PretrainSamplesPerClass and PretrainEpochs control the generic
	// pretraining run (defaults 500 and 3).
	PretrainSamplesPerClass int
	PretrainEpochs          int
	// AdaptSamplesPerClass and AdaptEpochs control per-task domain
	// adaptation (defaults 200 and 1; the paper uses 2000 and 1).
	AdaptSamplesPerClass int
	AdaptEpochs          int
	// NoiseThreshold switches the regression modeler off above this
	// estimated noise level (default 0.20; negative disables regression).
	NoiseThreshold float64
	// Seed makes pretraining and adaptation deterministic.
	Seed int64
	// Workers bounds the concurrency of ModelProfile (<= 0 means
	// GOMAXPROCS). The reports are bit-identical for every worker count.
	Workers int
	// AdaptCacheSize bounds the LRU cache of domain-adapted networks shared
	// by all Model/ModelProfile calls on this modeler. Zero means
	// DefaultAdaptCacheSize; a negative value disables caching (every Model
	// call pays its own adaptation). Reports are bit-identical either way.
	AdaptCacheSize int
	// NoiseBucketWidth quantizes the estimated adaptation noise range before
	// it enters the cache signature (zero means
	// core.DefaultNoiseBucketWidth, 2.5% steps; negative disables
	// quantization).
	NoiseBucketWidth float64
	// AdaptRetries bounds the deterministic divergence-recovery retries per
	// domain adaptation (zero means core.DefaultAdaptRetries; negative
	// disables retries).
	AdaptRetries int
	// DisableFallback surfaces DNN-path failures (e.g. ErrDiverged) as errors
	// instead of degrading to the pretrained network or the regression
	// modeler.
	DisableFallback bool
	// Float32 runs DNN training and inference through the float32 SIMD fast
	// path. Models stay within DESIGN.md §11's tolerance of the float64
	// results but are not bit-identical to them; the default (false) keeps
	// every output bit-identical to earlier versions.
	Float32 bool
	// ModelDir, when non-empty, is a directory used as a pretrained-network
	// registry: NewAdaptiveModeler loads a network pretrained under the same
	// effective configuration instead of retraining (zero pretraining
	// epochs), and stores fresh pretraining results for later runs. See
	// internal/modelregistry.
	ModelDir string
}

// Degradation paths recorded in Report.Resilience (see core.FallbackPath).
const (
	FallbackNone       = core.FallbackNone
	FallbackPretrained = core.FallbackPretrained
	FallbackRegression = core.FallbackRegression
)

// ErrDiverged marks a training run that produced non-finite losses or
// exploding weights. errors.Is(report.Resilience.FallbackErr, ErrDiverged)
// identifies divergence-triggered degradation; with Options.DisableFallback
// the error surfaces directly from Model/ModelCtx.
var ErrDiverged = nn.ErrDiverged

// DefaultAdaptCacheSize is the adaptation-cache bound used when
// Options.AdaptCacheSize is zero. Profiles rarely span more than a handful of
// distinct task signatures, so 32 entries amortize adaptation across whole
// campaigns while bounding retained networks to a few megabytes.
const DefaultAdaptCacheSize = 32

// CacheStats reports the adaptation-cache counters of an AdaptiveModeler.
type CacheStats = adaptcache.Stats

// TrainStats summarizes one training run of the classification network.
type TrainStats = nn.TrainStats

// PaperTopology is the hidden-layer configuration of the publication.
func PaperTopology() []int { return append([]int(nil), dnnmodel.PaperTopology...) }

// AdaptiveModeler is the noise-resilient adaptive performance modeler: the
// primary contribution of the paper. Create one with NewAdaptiveModeler (or
// NewAdaptiveModelerFromNetwork to reuse a saved network); it can then model
// any number of measurement sets, cloning and retraining its pretrained
// network per task.
type AdaptiveModeler struct {
	inner      *core.Modeler
	pretrained *dnnmodel.Modeler
	preStats   *TrainStats
	workers    int
}

// NewAdaptiveModeler pretrains the classification network on synthetic PMNF
// data and wraps it in the adaptive modeling pipeline. Pretraining takes
// seconds to minutes depending on Options.Topology; reuse the modeler (or
// save the network) rather than recreating it.
func NewAdaptiveModeler(opts Options) (*AdaptiveModeler, error) {
	cfg := dnnmodel.PretrainConfig{
		Hidden:          opts.Topology,
		SamplesPerClass: opts.PretrainSamplesPerClass,
		Epochs:          opts.PretrainEpochs,
		Seed:            opts.Seed,
		Precision:       opts.precision(),
	}
	if opts.ModelDir != "" {
		reg, err := modelregistry.Open(opts.ModelDir)
		if err != nil {
			return nil, fmt.Errorf("extrapdnn: model dir: %w", err)
		}
		cfg.Registry = reg
	}
	pre, stats := dnnmodel.Pretrain(cfg)
	m, err := newAdaptive(pre, opts)
	if err != nil {
		return nil, err
	}
	m.preStats = &stats
	return m, nil
}

// precision maps the Float32 option to the nn precision selector.
func (o Options) precision() nn.Precision {
	if o.Float32 {
		return nn.Float32
	}
	return nn.Float64
}

// NewAdaptiveModelerFromNetwork builds an adaptive modeler around a network
// previously saved with SaveNetwork, skipping pretraining.
func NewAdaptiveModelerFromNetwork(r io.Reader, opts Options) (*AdaptiveModeler, error) {
	net, err := nn.Load(r)
	if err != nil {
		return nil, fmt.Errorf("extrapdnn: %w", err)
	}
	return newAdaptive(&dnnmodel.Modeler{Net: net, Precision: opts.precision()}, opts)
}

func newAdaptive(pre *dnnmodel.Modeler, opts Options) (*AdaptiveModeler, error) {
	cacheSize := opts.AdaptCacheSize
	switch {
	case cacheSize == 0:
		cacheSize = DefaultAdaptCacheSize
	case cacheSize < 0:
		cacheSize = 0 // core: zero disables caching
	}
	inner, err := core.New(pre, core.Config{
		NoiseThreshold: opts.NoiseThreshold,
		Adapt: dnnmodel.AdaptConfig{
			SamplesPerClass: opts.AdaptSamplesPerClass,
			Epochs:          opts.AdaptEpochs,
			Precision:       opts.precision(),
		},
		Seed:             opts.Seed,
		AdaptCacheSize:   cacheSize,
		NoiseBucketWidth: opts.NoiseBucketWidth,
		AdaptRetries:     opts.AdaptRetries,
		DisableFallback:  opts.DisableFallback,
	})
	if err != nil {
		return nil, fmt.Errorf("extrapdnn: %w", err)
	}
	return &AdaptiveModeler{inner: inner, pretrained: pre, workers: opts.Workers}, nil
}

// PretrainStats returns the training statistics of the pretraining run, or
// nil when the modeler was built from a saved network (no pretraining ran).
func (m *AdaptiveModeler) PretrainStats() *TrainStats {
	return m.preStats
}

// AdaptCacheStats returns a snapshot of the adaptation-cache counters: how
// many Model calls reused a cached domain-adapted network (Hits) versus paid
// an adaptation-training run (Misses), plus eviction count and the retained
// bytes of resident networks. All zeros when caching is disabled.
func (m *AdaptiveModeler) AdaptCacheStats() CacheStats {
	return m.inner.CacheStats()
}

// Model runs the adaptive modeling pipeline on a measurement set.
func (m *AdaptiveModeler) Model(set *MeasurementSet) (Report, error) {
	return m.inner.Model(set)
}

// ModelCtx is Model with cancellation: ctx is observed at every
// adaptation/training epoch boundary and between per-parameter DNN fits, so a
// cancelled run stops within one training epoch and returns ctx's error.
func (m *AdaptiveModeler) ModelCtx(ctx context.Context, set *MeasurementSet) (Report, error) {
	return m.inner.ModelCtx(ctx, set)
}

// SaveNetwork writes the pretrained classification network so later runs can
// skip pretraining (see NewAdaptiveModelerFromNetwork).
func (m *AdaptiveModeler) SaveNetwork(w io.Writer) error {
	return m.pretrained.Net.Save(w)
}

// RegressionModel runs the classic Extra-P regression modeler alone — the
// paper's baseline. It needs no pretrained network.
func RegressionModel(set *MeasurementSet) (ModelResult, error) {
	return regression.Model(set, regression.Options{})
}

// EstimateNoise analyzes the noise level of a measurement set using the
// range-of-relative-deviation heuristic.
func EstimateNoise(set *MeasurementSet) NoiseAnalysis {
	return noise.Analyze(set)
}

// PredictionInterval estimates a two-sided confidence interval for the
// regression model's prediction at an extrapolation point by bootstrapping
// the measurement repetitions (resamples refits; level e.g. 0.95).
func PredictionInterval(set *MeasurementSet, point Point, resamples int, level float64, seed int64) (Interval, error) {
	return regression.PredictionInterval(set, point, resamples, level, seed, nil)
}

// ReadMeasurementsJSON parses a measurement set from JSON.
func ReadMeasurementsJSON(r io.Reader) (*MeasurementSet, error) {
	return measurement.ReadJSON(r)
}

// ReadMeasurementsText parses the whitespace-separated text format: each
// line holds numParams parameter values followed by one or more repetition
// values; "# params: a b" headers and comments are honored.
func ReadMeasurementsText(r io.Reader, numParams int) (*MeasurementSet, error) {
	return measurement.ReadText(r, numParams)
}

// ReadMeasurementsExtraP parses the Extra-P-style text format (PARAMETER /
// POINTS / DATA blocks), easing interop with campaigns prepared for the
// original tool.
func ReadMeasurementsExtraP(r io.Reader) (*MeasurementSet, error) {
	return measurement.ReadExtraPWith(r, measurement.ReadConfig{})
}
