// Package core implements the paper's primary contribution: the adaptive
// performance modeler (Section IV-A). Given a measurement set it
//
//  1. estimates the noise level with the range-of-relative-deviation
//     heuristic;
//  2. extracts the task properties (parameter-value sets, measurement-point
//     layout, repetition count);
//  3. retrains the pretrained DNN on synthetic data mirroring those
//     properties (domain adaptation);
//  4. models with the DNN — and, when the estimated noise is below the
//     switching threshold, additionally with the classic regression
//     modeler;
//  5. returns the model with the smaller cross-validated SMAPE.
//
// Above the threshold the regression modeler is switched off entirely
// because its tight in-sample fit of noisy data destroys extrapolation
// accuracy, while the DNN's class prior keeps predictions stable.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"extrapdnn/internal/adaptcache"
	"extrapdnn/internal/dnnmodel"
	"extrapdnn/internal/faultinject"
	"extrapdnn/internal/measurement"
	"extrapdnn/internal/nn"
	"extrapdnn/internal/noise"
	"extrapdnn/internal/obs"
	"extrapdnn/internal/regression"
)

// DefaultNoiseThreshold is the estimated noise level (fraction) above which
// the regression modeler is switched off. The synthetic evaluation
// (cmd/evalsynth) locates the accuracy crossover of the two modelers in the
// 10–20% band, matching the paper's analysis.
const DefaultNoiseThreshold = 0.20

// DefaultNoiseBucketWidth quantizes the estimated adaptation noise range in
// 2.5% steps. The rrd noise estimate is itself a coarse order statistic (its
// run-to-run resolution is no finer than a few percent), so snapping the
// range to 2.5% buckets costs no adaptation fidelity while letting kernels
// in the same noise band share one cached adaptation. See DESIGN.md
// ("Adaptation caching") for the width trade-off.
const DefaultNoiseBucketWidth = 0.025

// DefaultAdaptRetries is the default number of divergence-recovery retries
// after a failed domain adaptation (so up to 1+DefaultAdaptRetries training
// runs per adaptation). Each retry re-derives its rng deterministically from
// the task signature and the attempt counter (adaptcache.RetrySeed) and
// halves the learning rate, the standard first response to divergence.
const DefaultAdaptRetries = 2

// Config tunes the adaptive modeler.
type Config struct {
	// NoiseThreshold switches the regression modeler off when the estimated
	// noise level exceeds it. Zero means DefaultNoiseThreshold; a negative
	// value disables the regression modeler entirely.
	NoiseThreshold float64
	// Adapt configures the per-task domain adaptation.
	Adapt dnnmodel.AdaptConfig
	// DisableAdaptation skips the per-task retraining and uses the
	// pretrained network as-is (for ablation).
	DisableAdaptation bool
	// DisableDNN turns the adaptive modeler into a plain regression modeler
	// (for ablation and for the paper's baseline column).
	DisableDNN bool
	// TopK bounds the hypotheses per parameter (default 3).
	TopK int
	// Seed makes the synthetic adaptation data deterministic.
	Seed int64
	// AdaptCacheSize bounds the modeler's LRU cache of domain-adapted
	// networks, keyed by canonical task signature (parameter names and value
	// sets, repetition count, quantized noise bucket, adaptation config and
	// pretrained-network fingerprint). Zero disables caching and restores
	// the one-adaptation-per-Model-call cost; results are bit-identical
	// either way because the adaptation is a pure function of the signature.
	AdaptCacheSize int
	// NoiseBucketWidth quantizes the estimated adaptation noise range before
	// it enters the task signature and the synthetic data generator. Zero
	// means DefaultNoiseBucketWidth; a negative value disables quantization
	// (every distinct estimate is its own signature).
	NoiseBucketWidth float64
	// AdaptRetries bounds the divergence-recovery retries after a failed
	// domain adaptation. Zero means DefaultAdaptRetries; a negative value
	// disables retries (one attempt only). Attempt 0 is bit-identical to the
	// retry-free path; retries re-seed deterministically and halve the
	// learning rate per attempt.
	AdaptRetries int
	// DisableFallback turns graceful degradation off: a DNN-path failure
	// (diverged adaptation after retries, or a failed DNN modeling run) is
	// returned as an error instead of falling back to the pretrained network
	// or the regression modeler. Use it to surface nn.ErrDiverged directly.
	DisableFallback bool
}

func (c Config) threshold() float64 {
	if c.NoiseThreshold == 0 {
		return DefaultNoiseThreshold
	}
	return c.NoiseThreshold
}

// bucketWidth returns the effective noise-bucket width (<= 0 disables
// quantization).
func (c Config) bucketWidth() float64 {
	if c.NoiseBucketWidth == 0 {
		return DefaultNoiseBucketWidth
	}
	return c.NoiseBucketWidth
}

// adaptRetries returns the effective retry count (negative disables).
func (c Config) adaptRetries() int {
	if c.AdaptRetries == 0 {
		return DefaultAdaptRetries
	}
	if c.AdaptRetries < 0 {
		return 0
	}
	return c.AdaptRetries
}

// Modeler is the adaptive performance modeler. It is safe for concurrent use
// and Model is a pure function of its input: the adaptation random stream is
// derived from the task signature (layout, repetitions, noise bucket) and the
// configured seed, so the same set always produces the same model —
// independent of call order, worker count, interleaving with other Model
// calls, or whether the adapted network came from the cache.
type Modeler struct {
	pretrained *dnnmodel.Modeler
	cfg        Config
	// fp fingerprints the pretrained network (computed once; the network is
	// never mutated) so cached adaptations never cross pretrained networks.
	fp uint64
	// cache holds domain-adapted networks keyed by task signature; nil when
	// caching is disabled (adaptcache.New returns nil for size <= 0 and all
	// its methods accept a nil receiver).
	cache *adaptcache.Cache
}

// New builds an adaptive modeler around a pretrained DNN modeler. The
// pretrained network is never mutated; domain adaptation always works on a
// clone. pretrained may be nil only when cfg.DisableDNN is set.
func New(pretrained *dnnmodel.Modeler, cfg Config) (*Modeler, error) {
	if pretrained == nil && !cfg.DisableDNN {
		return nil, fmt.Errorf("core: a pretrained DNN modeler is required unless DisableDNN is set")
	}
	if cfg.TopK > 0 && pretrained != nil {
		pretrained = &dnnmodel.Modeler{Net: pretrained.Net, TopK: cfg.TopK, Precision: pretrained.Precision}
	}
	m := &Modeler{pretrained: pretrained, cfg: cfg}
	if pretrained != nil && !cfg.DisableDNN && !cfg.DisableAdaptation {
		m.fp = pretrained.Net.Fingerprint()
		m.cache = adaptcache.New(cfg.AdaptCacheSize)
	}
	return m, nil
}

// CacheStats returns a snapshot of the adaptation-cache counters (zeros when
// caching is disabled). Misses count actual adaptation-training runs; Hits
// count Model calls that reused a cached network.
func (m *Modeler) CacheStats() adaptcache.Stats {
	return m.cache.Stats()
}

// Report is the complete outcome of one adaptive modeling run.
type Report struct {
	// Model is the selected performance model and SMAPE its cross-validated
	// score.
	Model regression.Result
	// Noise is the noise analysis of the input measurements.
	Noise noise.Analysis
	// UsedRegression and UsedDNN record which modelers ran.
	UsedRegression bool
	UsedDNN        bool
	// SelectedDNN reports whether the final model came from the DNN modeler.
	SelectedDNN bool
	// Regression and DNN hold the individual results when the respective
	// modeler ran.
	Regression *regression.Result
	DNN        *regression.Result
	// Durations breaks down where the modeling time went.
	Durations Durations
	// Resilience records the fault-tolerance path of this run: how many
	// adaptation attempts ran and whether (and why) the run degraded to a
	// fallback modeler.
	Resilience Resilience
}

// FallbackPath identifies the degradation path of one modeling run.
type FallbackPath int

const (
	// FallbackNone: the primary path (adapted DNN, plus regression below the
	// noise threshold) succeeded.
	FallbackNone FallbackPath = iota
	// FallbackPretrained: domain adaptation kept diverging, so the run used
	// the pretrained un-adapted network.
	FallbackPretrained
	// FallbackRegression: the DNN modeling path failed entirely and the run
	// degraded to the regression modeler (only taken below the noise
	// threshold, where regression is trustworthy).
	FallbackRegression
)

func (p FallbackPath) String() string {
	switch p {
	case FallbackPretrained:
		return "pretrained"
	case FallbackRegression:
		return "regression"
	default:
		return "none"
	}
}

// Resilience is the fault-tolerance record of one modeling run.
type Resilience struct {
	// AdaptAttempts is the number of adaptation training runs this call paid
	// for: 1 on the healthy path, >1 after divergence retries, 0 when the
	// adapted network came from the cache or adaptation was disabled.
	AdaptAttempts int
	// AdaptSkipped reports that no domain adaptation was even attempted
	// (DisableDNN or DisableAdaptation), disambiguating AdaptAttempts == 0
	// from the cache-hit case.
	AdaptSkipped bool
	// Fallback is the degradation path taken (FallbackNone when healthy).
	Fallback FallbackPath
	// FallbackErr is the error that forced the fallback (nil when healthy);
	// errors.Is(FallbackErr, nn.ErrDiverged) identifies divergence.
	FallbackErr error
}

// Resilience outcome labels, as returned by Resilience.Outcome and used as
// the "outcome" label of the extrapdnn_core_resilience_total metric family.
const (
	OutcomeFirstTry           = "first_try"           // one adaptation attempt, no fallback
	OutcomeRetried            = "retried"             // >1 attempts, recovered without fallback
	OutcomeCached             = "cached"              // adapted network reused from the cache
	OutcomeNoAdapt            = "no_adapt"            // adaptation disabled by config
	OutcomeFallbackPretrained = "fallback_pretrained" // degraded to the un-adapted network
	OutcomeFallbackRegression = "fallback_regression" // degraded to the regression modeler
)

// Outcome classifies the fault-tolerance path of a successful run into one of
// the Outcome* labels. In particular it distinguishes a run that recovered
// via divergence retries (OutcomeRetried) from plain first-try success —
// before this classification a successful retry was only visible by comparing
// AdaptAttempts against 1 and was silently conflated with the healthy path in
// the CLI output.
func (r Resilience) Outcome() string {
	switch r.Fallback {
	case FallbackPretrained:
		return OutcomeFallbackPretrained
	case FallbackRegression:
		return OutcomeFallbackRegression
	}
	switch {
	case r.AdaptSkipped:
		return OutcomeNoAdapt
	case r.AdaptAttempts == 0:
		return OutcomeCached
	case r.AdaptAttempts == 1:
		return OutcomeFirstTry
	default:
		return OutcomeRetried
	}
}

// Durations breaks the modeling time down (Fig. 6 of the paper).
type Durations struct {
	Adapt      time.Duration // domain adaptation (DNN retraining)
	DNN        time.Duration // DNN classification + hypothesis fitting
	Regression time.Duration // regression search
	Total      time.Duration
}

// Model runs the adaptive modeling process on a measurement set.
func (m *Modeler) Model(set *measurement.Set) (Report, error) {
	return m.ModelCtx(context.Background(), set)
}

// ModelCtx is Model with cancellation and graceful degradation. The context
// is observed at every adaptation/training epoch boundary and between
// per-parameter DNN fits; a cancelled run returns ctx's error without
// falling back. A diverged adaptation is retried deterministically (see
// Config.AdaptRetries) and then degraded to the pretrained network; a failed
// DNN modeling run degrades to the regression modeler when the noise level
// permits it. Report.Resilience records the path taken.
func (m *Modeler) ModelCtx(ctx context.Context, set *measurement.Set) (Report, error) {
	ctx, span := obs.StartSpan(ctx, "core.model")
	rep, err := m.modelCtx(ctx, set)
	if err != nil {
		obsModelErrors.Inc()
		if span != nil {
			span.SetString("error", err.Error())
			span.End()
		}
		return rep, err
	}
	obsModels.Inc()
	if obs.MetricsEnabled() {
		obsNoiseEstimate.Observe(rep.Noise.Global)
		obsModelSMAPE.Observe(rep.Model.SMAPE)
		if rep.SelectedDNN {
			obsSelectedDNN.Inc()
		} else {
			obsSelectedRegression.Inc()
		}
		obsResilience[rep.Resilience.Outcome()].Inc()
	}
	if span != nil {
		span.SetFloat("noise", rep.Noise.Global)
		span.SetFloat("smape", rep.Model.SMAPE)
		span.SetBool("selected_dnn", rep.SelectedDNN)
		span.SetString("outcome", rep.Resilience.Outcome())
		span.SetInt("adapt_attempts", int64(rep.Resilience.AdaptAttempts))
		span.End()
	}
	return rep, nil
}

// modelCtx is the uninstrumented body of ModelCtx.
func (m *Modeler) modelCtx(ctx context.Context, set *measurement.Set) (Report, error) {
	start := time.Now()
	var rep Report
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	if faultinject.Enabled {
		faultinject.Fire(faultinject.SiteCoreModel, set)
	}
	// Steps 1 and 2: noise estimation and task properties for domain
	// adaptation. Both modelers below read the prepared medians and lines.
	na, prep, err := analyze(set)
	rep.Noise = na
	if err != nil {
		return rep, err
	}
	task := extractTask(set, rep.Noise, prep.Lines, m.cfg.bucketWidth())

	useRegression := m.cfg.DisableDNN || rep.Noise.Global <= m.threshold()
	useDNN := !m.cfg.DisableDNN
	rep.Resilience.AdaptSkipped = m.cfg.DisableDNN || m.cfg.DisableAdaptation

	// Steps 3 and 4: domain adaptation and DNN modeling.
	var dnnRes *regression.Result
	if useDNN {
		adaptStart := time.Now()
		modeler := m.pretrained
		if !m.cfg.DisableAdaptation {
			adapted, attempts, err := m.adaptedCtx(ctx, set, task)
			rep.Resilience.AdaptAttempts = attempts
			switch {
			case err == nil:
				modeler = adapted
			case ctx.Err() != nil:
				// Cancellation is never degraded around.
				rep.Durations.Adapt = time.Since(adaptStart)
				return rep, err
			case m.cfg.DisableFallback:
				rep.Durations.Adapt = time.Since(adaptStart)
				return rep, fmt.Errorf("core: domain adaptation: %w", err)
			default:
				// Diverged after all retries: degrade to the pretrained
				// un-adapted network, which is always finite.
				rep.Resilience.Fallback = FallbackPretrained
				rep.Resilience.FallbackErr = err
			}
		}
		rep.Durations.Adapt = time.Since(adaptStart)
		dnnStart := time.Now()
		res, err := modeler.ModelCtx(ctx, prep)
		rep.Durations.DNN = time.Since(dnnStart)
		switch {
		case err == nil:
			dnnRes = &res
			rep.UsedDNN = true
			rep.DNN = dnnRes
		case ctx.Err() != nil:
			return rep, err
		case m.cfg.DisableFallback || !useRegression:
			// Above the noise threshold regression is untrustworthy (its
			// tight in-sample fit of noisy data destroys extrapolation), so
			// there is nothing sound to degrade to.
			return rep, fmt.Errorf("core: DNN modeler: %w", err)
		default:
			rep.Resilience.Fallback = FallbackRegression
			rep.Resilience.FallbackErr = err
		}
	}

	// Regression modeling (only below the noise threshold).
	var regRes *regression.Result
	if useRegression {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		regStart := time.Now()
		_, regSpan := obs.StartSpan(ctx, "core.regression")
		res, err := regression.ModelLines(prep, regression.Options{TopK: m.cfg.TopK})
		regSpan.End()
		rep.Durations.Regression = time.Since(regStart)
		if err != nil {
			if dnnRes == nil {
				return rep, fmt.Errorf("core: regression modeler: %w", err)
			}
		} else {
			regRes = &res
			rep.UsedRegression = true
			rep.Regression = regRes
		}
	}

	// Step 5: select the best model by cross-validated SMAPE.
	switch {
	case dnnRes != nil && regRes != nil:
		if dnnRes.SMAPE <= regRes.SMAPE {
			rep.Model, rep.SelectedDNN = *dnnRes, true
		} else {
			rep.Model = *regRes
		}
	case dnnRes != nil:
		rep.Model, rep.SelectedDNN = *dnnRes, true
	case regRes != nil:
		rep.Model = *regRes
	default:
		return rep, fmt.Errorf("core: no modeler produced a result")
	}
	rep.Durations.Total = time.Since(start)
	return rep, nil
}

// analyze is the one per-set analysis of a modeling call: it validates the
// set, estimates its noise and prepares its medians and lines. The noise
// analysis is returned even when line selection fails; it is zero when
// validation fails.
func analyze(set *measurement.Set) (noise.Analysis, *regression.Prepared, error) {
	if err := set.Validate(); err != nil {
		return noise.Analysis{}, nil, err
	}
	na := noise.Analyze(set)
	prep, err := regression.Prepare(set)
	return na, prep, err
}

// threshold returns the effective switching threshold.
func (m *Modeler) threshold() float64 {
	t := m.cfg.threshold()
	if t < 0 {
		return -1 // regression never runs
	}
	return t
}

// extractTask derives the adaptation task properties from a measurement set:
// the parameter-value sets of its selected lines, the repetition count, and
// the estimated noise range — clamped at 100% (beyond that level the
// synthetic labels are essentially random and retraining on them would
// degrade the classifier; the paper pretrains on n ∈ [0, 100%]) and then
// quantized to the noise-bucket width. Per-point noise levels in the
// adaptation data mirror real campaigns, whose run-to-run variability
// differs between configurations.
func extractTask(set *measurement.Set, na noise.Analysis, lines []regression.Line, bucketWidth float64) dnnmodel.TaskInfo {
	noiseMax := na.Max
	if noiseMax > 1 {
		noiseMax = 1
	}
	noiseMin := na.Min
	if noiseMin > noiseMax {
		noiseMin = noiseMax
	}
	task := dnnmodel.TaskInfo{
		Reps:          set.Repetitions(),
		NoiseMin:      quantizeNoise(noiseMin, bucketWidth),
		NoiseMax:      quantizeNoise(noiseMax, bucketWidth),
		PerPointNoise: true,
	}
	for _, line := range lines {
		task.ParamValues = append(task.ParamValues, line.Xs)
	}
	return task
}

// quantizeNoise snaps a noise level to the nearest bucket edge. Rounding (not
// flooring) keeps the quantization error within width/2, and the result is
// clamped back into [0, 1]. A non-positive width disables quantization.
func quantizeNoise(v, width float64) float64 {
	if width <= 0 {
		return v
	}
	q := math.Round(v/width) * width
	if q < 0 {
		return 0
	}
	if q > 1 {
		return 1
	}
	return q
}

// signature builds the canonical cache signature of one adaptation task for
// this modeler: the task's part (taskSignature) plus the adaptation config,
// pretrained fingerprint and seed. The quantized task plus these fields
// fully determine the adapted network: the rng stream is seeded from the
// signature key, so equal signatures produce bit-identical adaptations.
func (m *Modeler) signature(set *measurement.Set, task dnnmodel.TaskInfo) adaptcache.Signature {
	adapt := m.cfg.Adapt.WithDefaults()
	sig := taskSignature(set, task)
	sig.SamplesPerClass, sig.Epochs, sig.BatchSize = adapt.SamplesPerClass, adapt.Epochs, adapt.BatchSize
	sig.LearningRate, sig.Precision = adapt.LearningRate, adapt.Precision
	sig.Fingerprint, sig.Seed = m.fp, m.cfg.Seed
	return sig
}

// taskSignature is the layout-and-noise part of an adaptation signature.
func taskSignature(set *measurement.Set, task dnnmodel.TaskInfo) adaptcache.Signature {
	return adaptcache.Signature{ParamNames: set.ParamNames, ParamValues: task.ParamValues, Reps: task.Reps,
		NoiseMin: task.NoiseMin, NoiseMax: task.NoiseMax, PerPointNoise: task.PerPointNoise}
}

// adaptedCtx returns the domain-adapted modeler for a task, from the cache
// when an equal-signature adaptation already ran. The adaptation is a pure
// function of the signature key (the rng is seeded from it), so a cache hit
// is bit-identical to the fresh adaptation it replaces; concurrent misses on
// one signature share a single adaptation run (adaptcache single-flight). A
// failed creation — divergence after all retries, or cancellation — returns
// an error and is never cached (adaptcache.GetOrCreateErr drops the pending
// entry), so a later equal-signature task retries from scratch. attempts is
// the number of adaptation training runs paid for by this call (0 on a cache
// hit).
func (m *Modeler) adaptedCtx(ctx context.Context, set *measurement.Set, task dnnmodel.TaskInfo) (mod *dnnmodel.Modeler, attempts int, err error) {
	key := m.signature(set, task).Key()
	mod, err = m.cache.GetOrCreateErr(key, func() (*dnnmodel.Modeler, error) {
		mod, n, err := m.adaptWithRetry(ctx, key, task)
		attempts = n
		return mod, err
	})
	return mod, attempts, err
}

// adaptWithRetry runs the domain adaptation with bounded deterministic
// divergence recovery: attempt 0 uses adaptcache.SeedFor(key) and the
// configured learning rate — bit-identical to the historical retry-free path
// — while attempt k>0 re-seeds via adaptcache.RetrySeed(key, k) and divides
// the learning rate by 2^k. Cancellation aborts the retry loop immediately.
func (m *Modeler) adaptWithRetry(ctx context.Context, key string, task dnnmodel.TaskInfo) (*dnnmodel.Modeler, int, error) {
	maxAttempts := 1 + m.cfg.adaptRetries()
	cfg := m.cfg.Adapt
	baseLR := cfg.WithDefaults().LearningRate
	if baseLR <= 0 {
		baseLR = nn.DefaultLearningRate
	}
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			obsAdaptRetries.Inc()
			cfg.LearningRate = baseLR / float64(int64(1)<<uint(attempt))
		}
		rng := rand.New(rand.NewSource(adaptcache.RetrySeed(key, attempt)))
		mod, _, err := m.pretrained.DomainAdaptCtx(ctx, rng, task, cfg)
		if err == nil {
			return mod, attempt + 1, nil
		}
		if ctx.Err() != nil {
			return nil, attempt + 1, err
		}
		lastErr = err
	}
	return nil, maxAttempts, lastErr
}

// TaskSignature returns the layout-and-noise part of the canonical
// adaptation signature of a measurement set: parameter names, the exact
// value sets of the selected lines, the repetition count and the quantized
// noise bucket. Modeler-specific components (adaptation config, pretrained
// fingerprint, seed) are zero, so the result compares task *properties*
// across kernels — noisescan uses it to report how many distinct adaptations
// a profile would pay. bucketWidth follows Config.NoiseBucketWidth semantics:
// 0 means DefaultNoiseBucketWidth, negative disables quantization.
func TaskSignature(set *measurement.Set, bucketWidth float64) (string, error) {
	na, prep, err := analyze(set)
	if err != nil {
		return "", err
	}
	task := extractTask(set, na, prep.Lines, Config{NoiseBucketWidth: bucketWidth}.bucketWidth())
	return taskSignature(set, task).Key(), nil
}
