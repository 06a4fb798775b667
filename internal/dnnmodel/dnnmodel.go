// Package dnnmodel implements the paper's DNN performance modeler
// (Section IV-D): a feed-forward network classifies the exponent pair of
// each parameter's PMNF term from a fixed 11-value encoding of the
// measurement line; the top-3 predicted classes form the hypothesis set,
// whose coefficients are then fitted with linear regression and selected by
// cross-validated SMAPE — the same combination machinery the regression
// modeler uses, with the exhaustive class search replaced by the network's
// prediction. Domain adaptation (Section IV-E) retrains a pretrained generic
// network on synthetic data generated from the properties of the concrete
// modeling task.
package dnnmodel

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"extrapdnn/internal/faultinject"
	"extrapdnn/internal/mat"
	"extrapdnn/internal/measurement"
	"extrapdnn/internal/modelregistry"
	"extrapdnn/internal/nn"
	"extrapdnn/internal/obs"
	"extrapdnn/internal/parallel"
	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/preprocess"
	"extrapdnn/internal/regression"
	"extrapdnn/internal/synth"
)

// PaperTopology is the hidden-layer configuration of the paper: five dense
// layers of 1500, 1500, 750, 250 and 250 neurons.
var PaperTopology = []int{1500, 1500, 750, 250, 250}

// DefaultTopology is a reduced configuration of the same architecture family
// that keeps per-task domain adaptation tractable on a laptop while
// preserving the qualitative behavior (see DESIGN.md §4).
var DefaultTopology = []int{256, 256, 128, 64, 64}

// TinyTopology is for fast tests.
var TinyTopology = []int{48, 32}

// Modeler couples a trained classification network with the hypothesis
// machinery.
type Modeler struct {
	Net *nn.Network
	// TopK is the number of predicted classes per parameter turned into
	// hypotheses (default 3, per the paper).
	TopK int
	// Precision selects the classification arithmetic. The default
	// (nn.Float64) ranks softmax probabilities with the bit-pinned kernels,
	// so batched and historical per-line classification agree exactly;
	// nn.Float32 runs the SIMD fast path within DESIGN.md §11's tolerance.
	Precision nn.Precision

	// sessions pools batched-inference sessions (one per concurrent Model
	// call; nn.InferSession is not goroutine-safe). Sessions hold the
	// float32 weight mirror when Precision is nn.Float32, so pooling them
	// amortizes the mirror across Model calls.
	sessions sync.Pool
}

// session returns a pooled inference session for the modeler's network,
// creating one when the pool is empty.
func (m *Modeler) session(rows int) *nn.InferSession {
	if s, ok := m.sessions.Get().(*nn.InferSession); ok {
		return s
	}
	return m.Net.NewInferSession(rows, m.Precision)
}

func (m *Modeler) putSession(s *nn.InferSession) { m.sessions.Put(s) }

func (m *Modeler) topK() int {
	if m.TopK <= 0 {
		return regression.DefaultTopK
	}
	return m.TopK
}

// TrainSpec describes how to generate a synthetic training set.
type TrainSpec struct {
	SamplesPerClass int     // samples generated per exponent class
	Reps            int     // measurement repetitions simulated per point
	NoiseMin        float64 // lower bound of the uniform noise-level draw
	NoiseMax        float64 // upper bound (paper: 1.0 = 100% for pretraining)
	// ParamValues optionally fixes the parameter-value sequences, one line
	// drawn per sample from this list; nil generates random sequences of
	// 5–11 points (pretraining). Domain adaptation passes the task's own
	// parameter-value sets here.
	ParamValues [][]float64
	// PerPointNoise draws a fresh noise level per measurement point instead
	// of per line, matching campaigns with heterogeneous run-to-run
	// variability across configurations.
	PerPointNoise bool
}

// BuildDataset generates an encoded training set: one row per sample, one
// label per row. Samples whose line cannot be encoded (degenerate sequences)
// are skipped, so the result may hold slightly fewer rows than
// 43*SamplesPerClass.
//
// Generation is parallelized across the 43 exponent classes (via the
// deterministic seeded runner of internal/parallel), which dominates
// domain-adaptation wall time at small epoch counts. Determinism contract:
// the parent rng is consumed only to draw one sub-seed per class (in class
// order, before any worker starts), each class generates from its own
// rand.Rand, and class blocks are concatenated in class order — so the
// dataset is a pure function of the rng state regardless of GOMAXPROCS or
// goroutine scheduling.
//
// Each worker encodes its samples directly into the preallocated dataset
// matrix through a pooled synth.LineWorkspace, so generation allocates
// O(classes), not O(samples); the class blocks are then compacted in place to
// squeeze out the rows of unencodable samples.
func BuildDataset(rng *rand.Rand, spec TrainSpec) (*mat.Matrix, []int) {
	return buildDataset(rng, spec, nil)
}

// datasetBuf carries reusable backing storage for an encoded dataset, so
// adaptation datasets can be pooled across profile entries.
type datasetBuf struct {
	data   []float64
	labels []int
}

// adaptPool recycles adaptation dataset buffers across Model calls and
// profile entries. Safe because nn.Train never retains its input matrix
// beyond the call.
var adaptPool = sync.Pool{New: func() any { return new(datasetBuf) }}

// wsPool recycles line-generation workspaces across classes and builds, so
// steady-state generation keeps one workspace per active worker.
var wsPool = sync.Pool{New: func() any { return new(synth.LineWorkspace) }}

// buildDataset is BuildDataset writing into buf's storage when buf is
// non-nil (growing it as needed).
func buildDataset(rng *rand.Rand, spec TrainSpec, buf *datasetBuf) (*mat.Matrix, []int) {
	var buildStart time.Time
	if obs.MetricsEnabled() {
		buildStart = time.Now()
	}
	perClass := spec.SamplesPerClass
	if perClass < 1 {
		perClass = 1
	}
	reps := spec.Reps
	if reps < 1 {
		reps = 1
	}
	const cols = preprocess.InputSize
	total := pmnf.NumClasses * perClass
	var data []float64
	var labels []int
	if buf != nil {
		if cap(buf.data) < total*cols {
			buf.data = make([]float64, total*cols)
		}
		if cap(buf.labels) < total {
			buf.labels = make([]int, total)
		}
		data, labels = buf.data[:total*cols], buf.labels[:0]
	} else {
		data = make([]float64, total*cols)
		labels = make([]int, 0, total)
	}
	x := mat.NewFromData(total, cols, data)
	counts, _ := parallel.MapSeeded(pmnf.NumClasses, 0, rng, func(class int, crng *rand.Rand) (int, error) {
		ws := wsPool.Get().(*synth.LineWorkspace)
		n := 0
		for s := 0; s < perClass; s++ {
			var xs []float64
			if len(spec.ParamValues) > 0 {
				xs = spec.ParamValues[crng.Intn(len(spec.ParamValues))]
			}
			gxs, vals := ws.GenLine(crng, class, xs, reps, spec.NoiseMin, spec.NoiseMax, spec.PerPointNoise)
			if err := preprocess.EncodeTo(x.Row(class*perClass+n), gxs, vals); err != nil {
				continue
			}
			n++
		}
		wsPool.Put(ws)
		return n, nil
	})
	// Compact the class blocks: close the gaps left by skipped samples and
	// emit the labels in class order.
	rows := 0
	for class, n := range counts {
		src := class * perClass
		if rows != src && n > 0 {
			copy(data[rows*cols:(rows+n)*cols], data[src*cols:(src+n)*cols])
		}
		for i := 0; i < n; i++ {
			labels = append(labels, class)
		}
		rows += n
	}
	if buf != nil {
		buf.labels = labels
	}
	if rows != total {
		x = mat.NewFromData(rows, cols, data[:rows*cols])
	}
	if obs.MetricsEnabled() {
		obsDatasetBuilds.Inc()
		obsDatasetRows.Add(uint64(rows))
		obsDatasetSeconds.Observe(time.Since(buildStart).Seconds())
	}
	return x, labels
}

// PretrainConfig configures the generic pretraining run.
type PretrainConfig struct {
	Hidden          []int // hidden layer sizes; nil means DefaultTopology
	SamplesPerClass int   // default 500
	Reps            int   // default 5
	Epochs          int   // default 3
	BatchSize       int   // default 64
	LearningRate    float64
	Seed            int64
	// Precision selects the training arithmetic (nn.Float64 default; the
	// float64 trajectory is bit-identical to pre-precision-path builds).
	Precision nn.Precision
	// Registry, when non-nil, is consulted before training: a network stored
	// under this exact effective configuration is loaded instead of trained
	// (zero training epochs), and a fresh training result is stored back for
	// the next run. See internal/modelregistry.
	Registry *modelregistry.Registry
}

// RegistryKey returns the registry address of this configuration's
// pretraining result: every field that determines the trained weights, after
// defaulting, so explicitly-default and zero configs share one entry.
func (c PretrainConfig) RegistryKey() modelregistry.Key {
	c = c.withDefaults()
	arch := append([]int{preprocess.InputSize}, c.Hidden...)
	arch = append(arch, pmnf.NumClasses)
	return modelregistry.Key{
		Arch:            arch,
		SamplesPerClass: c.SamplesPerClass,
		Reps:            c.Reps,
		Epochs:          c.Epochs,
		BatchSize:       c.BatchSize,
		LearningRate:    c.LearningRate,
		Seed:            c.Seed,
		Precision:       c.Precision,
	}
}

func (c PretrainConfig) withDefaults() PretrainConfig {
	if c.Hidden == nil {
		c.Hidden = DefaultTopology
	}
	if c.SamplesPerClass <= 0 {
		c.SamplesPerClass = 500
	}
	if c.Reps <= 0 {
		c.Reps = 5
	}
	if c.Epochs <= 0 {
		c.Epochs = 3
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	return c
}

// Pretrain trains a generic modeler on randomly generated lines covering the
// full noise range [0, 100%], the first stage of the paper's transfer
// learning.
func Pretrain(cfg PretrainConfig) (*Modeler, nn.TrainStats) {
	m, stats, _ := PretrainCtx(context.Background(), cfg)
	return m, stats
}

// PretrainCtx is Pretrain with cancellation and divergence reporting: the
// context is checked at every training epoch boundary, and a diverged run is
// surfaced as nn.ErrDiverged instead of silently returning a garbage network.
// The modeler is nil whenever the error is non-nil.
//
// With cfg.Registry set, a network stored under this exact effective
// configuration is returned without any training (the stats are zero —
// no epochs ran); a fresh result is stored back after training. A stored
// blob that fails validation is retrained over, never trusted.
func PretrainCtx(ctx context.Context, cfg PretrainConfig) (*Modeler, nn.TrainStats, error) {
	cfg = cfg.withDefaults()
	obsPretrains.Inc()
	ctx, span := obs.StartSpan(ctx, "dnnmodel.pretrain")
	span.SetInt("samples_per_class", int64(cfg.SamplesPerClass))
	span.SetInt("epochs", int64(cfg.Epochs))
	span.SetString("precision", cfg.Precision.String())
	defer span.End()
	if cfg.Registry != nil {
		key := cfg.RegistryKey()
		span.SetString("registry_digest", key.Digest())
		net, ok, lerr := cfg.Registry.Load(key)
		if lerr != nil {
			span.SetString("registry_error", lerr.Error())
		}
		if ok {
			span.SetBool("registry_hit", true)
			return &Modeler{Net: net, Precision: cfg.Precision}, nn.TrainStats{}, nil
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sizes := append([]int{preprocess.InputSize}, cfg.Hidden...)
	sizes = append(sizes, pmnf.NumClasses)
	net := nn.NewNetwork(sizes, rng)
	x, labels := BuildDataset(rng, TrainSpec{
		SamplesPerClass: cfg.SamplesPerClass,
		Reps:            cfg.Reps,
		NoiseMin:        0,
		NoiseMax:        1,
	})
	stats, err := net.TrainCtx(ctx, x, labels, nn.TrainOptions{
		Epochs:       cfg.Epochs,
		BatchSize:    cfg.BatchSize,
		LearningRate: cfg.LearningRate,
		Rng:          rng,
		Precision:    cfg.Precision,
	})
	if err == nil {
		err = stats.Err()
	}
	if err != nil {
		return nil, stats, err
	}
	if cfg.Registry != nil {
		// Best-effort: a read-only model dir must not fail the run.
		if storeErr := cfg.Registry.Store(cfg.RegistryKey(), net); storeErr != nil {
			span.SetString("registry_store_error", storeErr.Error())
		}
	}
	return &Modeler{Net: net, Precision: cfg.Precision}, stats, nil
}

// AdaptConfig configures per-task domain adaptation.
type AdaptConfig struct {
	SamplesPerClass int     // default 200 (paper: 2000)
	Epochs          int     // default 1 (paper: 1)
	BatchSize       int     // default 64
	LearningRate    float64 // default nn default
	// Precision selects the adaptation training arithmetic (nn.Float64
	// default). It participates in the adaptation-cache signature, so the
	// two precisions never alias a cached network.
	Precision nn.Precision
}

// WithDefaults returns the effective configuration with zero fields replaced
// by their documented defaults. The adaptation cache records these effective
// values in its task signature, so an explicit config equal to the defaults
// and the zero config share one cache entry.
func (c AdaptConfig) WithDefaults() AdaptConfig { return c.withDefaults() }

func (c AdaptConfig) withDefaults() AdaptConfig {
	if c.SamplesPerClass <= 0 {
		c.SamplesPerClass = 200
	}
	if c.Epochs <= 0 {
		c.Epochs = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	return c
}

// TaskInfo carries the properties of a concrete modeling task extracted from
// its measurements: the parameter-value sets of its lines, the repetition
// count, and the estimated noise range.
type TaskInfo struct {
	ParamValues [][]float64
	Reps        int
	NoiseMin    float64
	NoiseMax    float64
	// PerPointNoise mirrors tasks whose noise level varies per measurement
	// point (see TrainSpec.PerPointNoise).
	PerPointNoise bool
}

// DomainAdapt returns a copy of the modeler retrained on synthetic data that
// mirrors the task: the same parameter-value sequences, repetition count,
// and the noise range estimated from the measurements. The receiver is not
// modified, so one pretrained network serves many tasks.
func (m *Modeler) DomainAdapt(rng *rand.Rand, task TaskInfo, cfg AdaptConfig) *Modeler {
	adapted, _, err := m.DomainAdaptCtx(context.Background(), rng, task, cfg)
	if err != nil {
		// Divergence with no ctx in play: preserve the historical contract of
		// always returning a network; callers that care use DomainAdaptCtx.
		return &Modeler{Net: m.Net.Clone(), TopK: m.TopK, Precision: m.Precision}
	}
	return adapted
}

// DomainAdaptCtx is DomainAdapt with cancellation and divergence reporting.
// The context is checked at every adaptation epoch boundary; a diverged
// training run returns nn.ErrDiverged (via stats.Err()) and a nil modeler, so
// a poisoned network can never leak into the adaptation cache. The rng is
// consumed identically to DomainAdapt on the healthy path.
func (m *Modeler) DomainAdaptCtx(ctx context.Context, rng *rand.Rand, task TaskInfo, cfg AdaptConfig) (*Modeler, nn.TrainStats, error) {
	cfg = cfg.withDefaults()
	obsAdapts.Inc()
	ctx, span := obs.StartSpan(ctx, "dnnmodel.adapt")
	span.SetInt("samples_per_class", int64(cfg.SamplesPerClass))
	span.SetFloat("noise_max", task.NoiseMax)
	span.SetString("precision", cfg.Precision.String())
	defer span.End()
	buf := adaptPool.Get().(*datasetBuf)
	x, labels := buildDataset(rng, TrainSpec{
		SamplesPerClass: cfg.SamplesPerClass,
		Reps:            task.Reps,
		NoiseMin:        task.NoiseMin,
		NoiseMax:        task.NoiseMax,
		ParamValues:     task.ParamValues,
		PerPointNoise:   task.PerPointNoise,
	}, buf)
	adapted := m.Net.Clone()
	stats, err := adapted.TrainCtx(ctx, x, labels, nn.TrainOptions{
		Epochs:       cfg.Epochs,
		BatchSize:    cfg.BatchSize,
		LearningRate: cfg.LearningRate,
		Rng:          rng,
		Precision:    cfg.Precision,
	})
	adaptPool.Put(buf)
	if err == nil {
		err = stats.Err()
	}
	if err != nil {
		return nil, stats, err
	}
	return &Modeler{Net: adapted, TopK: m.TopK, Precision: cfg.Precision}, stats, nil
}

// Model builds a performance model for a measurement set: each parameter's
// line is classified by the network, the top-k classes become hypotheses
// whose coefficients are fitted by linear regression, and the best
// single-parameter hypotheses are combined exactly as in the regression
// modeler (additive and multiplicative combinations, cross-validated SMAPE).
func (m *Modeler) Model(set *measurement.Set) (regression.Result, error) {
	if err := set.Validate(); err != nil {
		return regression.Result{}, err
	}
	p, err := regression.Prepare(set)
	if err != nil {
		return regression.Result{}, err
	}
	return m.ModelCtx(context.Background(), p)
}

// ModelCtx is Model on a set prepared by regression.Prepare, with
// cancellation: the context is checked before each parameter's fit, so a
// cancelled profile run stops between parameters instead of finishing the
// whole combination search.
func (m *Modeler) ModelCtx(ctx context.Context, p *regression.Prepared) (regression.Result, error) {
	if err := ctx.Err(); err != nil {
		return regression.Result{}, err
	}
	obsPredicts.Inc()
	ctx, span := obs.StartSpan(ctx, "dnnmodel.predict")
	defer span.End()
	if faultinject.Enabled {
		var injected error
		faultinject.Fire(faultinject.SiteDNNModel, &injected)
		if injected != nil {
			return regression.Result{}, injected
		}
	}
	classes, err := m.classifyLines(p.Lines)
	if err != nil {
		return regression.Result{}, fmt.Errorf("dnnmodel: %w", err)
	}
	perParam := make([][]regression.Candidate, len(p.Lines))
	for l, line := range p.Lines {
		if err := ctx.Err(); err != nil {
			return regression.Result{}, err
		}
		cands, err := regression.FitLine(line.Xs, line.Vs, classes[l], m.topK())
		if err != nil {
			return regression.Result{}, fmt.Errorf("dnnmodel: parameter %d: %w", l, err)
		}
		perParam[l] = cands
	}
	return p.Combine(perParam)
}

// classifyLines classifies every selected line of a set in one batched
// forward pass through a pooled inference session. At the default nn.Float64
// precision the per-row results are bit-identical to Network.TopK on each
// line (pinned by nn's TopKBatch tests), so batching is invisible to golden
// outputs; nn.Float32 takes the SIMD logits-ranking fast path.
func (m *Modeler) classifyLines(lines []regression.Line) ([][]pmnf.Exponents, error) {
	x := mat.New(len(lines), preprocess.InputSize)
	for l, line := range lines {
		if err := preprocess.EncodeTo(x.Row(l), line.Xs, line.Vs); err != nil {
			return nil, fmt.Errorf("parameter %d: %w", l, err)
		}
	}
	s := m.session(len(lines))
	top := s.TopKBatch(x, m.topK())
	out := make([][]pmnf.Exponents, len(lines))
	for l, classes := range top {
		exps := make([]pmnf.Exponents, len(classes))
		for i, cls := range classes {
			exps[i] = pmnf.Class(cls)
		}
		out[l] = exps
	}
	// The session owns top's backing arena; release it only after the copy
	// above, or a concurrent Model call could overwrite the rankings.
	m.putSession(s)
	return out, nil
}
