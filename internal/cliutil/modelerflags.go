package cliutil

import (
	"context"
	"flag"

	"extrapdnn/internal/core"
	"extrapdnn/internal/dnnmodel"
)

// ModelerFlags is the shared flag family that configures an adaptive modeler
// — network loading/pretraining, domain adaptation, the noise threshold, and
// the adaptation cache. perfmodeler and modelerd register the same names and
// defaults through it, so a daemon started with the flags of a local run
// produces byte-identical models for the same inputs.
type ModelerFlags struct {
	NetPath         string
	Topology        string
	PretrainSamples int
	PretrainEpochs  int
	Float32         bool
	ModelDir        string
	AdaptSamples    int
	AdaptEpochs     int
	AdaptRetries    int
	Threshold       float64
	NoFallback      bool
	AdaptCache      int
	NoiseBucket     float64
	Seed            int64
	Workers         int
	NoSanitize      bool
}

// RegisterModelerFlags registers the shared modeler flag family on the
// process-wide flag set, with the names and defaults perfmodeler has always
// used.
func RegisterModelerFlags() *ModelerFlags {
	f := &ModelerFlags{}
	flag.StringVar(&f.NetPath, "net", "", "pretrained network file (from traingen); pretrains ad hoc when empty")
	flag.StringVar(&f.Topology, "topology", "default", "topology for ad-hoc pretraining")
	flag.IntVar(&f.PretrainSamples, "pretrain-samples", 300, "ad-hoc pretraining samples per class")
	flag.IntVar(&f.PretrainEpochs, "pretrain-epochs", 3, "ad-hoc pretraining epochs")
	flag.BoolVar(&f.Float32, "f32", false, "run DNN training and inference through the float32 SIMD fast path")
	flag.StringVar(&f.ModelDir, "model-dir", "", "pretrained-network registry directory: reuse equal-configuration pretraining results across runs")
	flag.IntVar(&f.AdaptSamples, "adapt-samples", 200, "domain-adaptation samples per class")
	flag.IntVar(&f.AdaptEpochs, "adapt-epochs", 1, "domain-adaptation epochs")
	flag.IntVar(&f.AdaptRetries, "adapt-retries", 0, "divergence retries per adaptation (0 = default 2, negative disables)")
	flag.Float64Var(&f.Threshold, "threshold", core.DefaultNoiseThreshold, "noise level above which the regression modeler is switched off")
	flag.BoolVar(&f.NoFallback, "no-fallback", false, "fail instead of degrading to the pretrained network or regression on DNN failure")
	flag.IntVar(&f.AdaptCache, "adapt-cache", 32, "LRU entries of the domain-adaptation cache (0 disables; results are identical either way)")
	flag.Float64Var(&f.NoiseBucket, "noise-bucket", 0, "noise-bucket width for the adaptation cache signature (0 = default 2.5% steps, negative disables quantization)")
	flag.Int64Var(&f.Seed, "seed", 1, "random seed")
	flag.IntVar(&f.Workers, "workers", 0, "concurrent modeling workers per profile (0 = GOMAXPROCS); results are identical for any value")
	flag.BoolVar(&f.NoSanitize, "no-sanitize", false, "reject measurement sets with bad points instead of repairing them")
	return f
}

// RegisterEvalFlags registers the network and adaptation flags that the
// evaluation tools (evalsynth, evalcases) share, with their defaults. The
// options and the -adapt-samples value are filled in by flag.Parse.
func RegisterEvalFlags() (*NetOptions, *int) {
	o := &NetOptions{}
	flag.StringVar(&o.NetPath, "net", "", "pretrained network file; pretrains ad hoc when empty")
	flag.StringVar(&o.Topology, "topology", "default", "topology for ad-hoc pretraining")
	flag.IntVar(&o.SamplesPerClass, "pretrain-samples", 500, "ad-hoc pretraining samples per class")
	flag.IntVar(&o.Epochs, "pretrain-epochs", 3, "ad-hoc pretraining epochs")
	flag.Int64Var(&o.Seed, "seed", 1, "random seed")
	flag.BoolVar(&o.Float32, "f32", false, "run DNN training and inference through the float32 SIMD fast path")
	flag.StringVar(&o.ModelDir, "model-dir", "", "pretrained-network registry directory: reuse equal-configuration pretraining results across runs")
	return o, flag.Int("adapt-samples", 200, "domain-adaptation samples per class")
}

// NetOptions maps the flags onto the network loading/pretraining options.
func (f *ModelerFlags) NetOptions(verbose bool) NetOptions {
	return NetOptions{
		NetPath:         f.NetPath,
		Topology:        f.Topology,
		SamplesPerClass: f.PretrainSamples,
		Epochs:          f.PretrainEpochs,
		Seed:            f.Seed,
		Float32:         f.Float32,
		ModelDir:        f.ModelDir,
		Verbose:         verbose,
	}
}

// CoreConfig maps the flags onto the adaptive-modeler configuration.
func (f *ModelerFlags) CoreConfig(disableDNN bool) core.Config {
	return core.Config{
		NoiseThreshold: f.Threshold,
		Adapt: dnnmodel.AdaptConfig{
			SamplesPerClass: f.AdaptSamples,
			Epochs:          f.AdaptEpochs,
			Precision:       f.NetOptions(false).Precision(),
		},
		DisableDNN:       disableDNN,
		Seed:             f.Seed,
		AdaptCacheSize:   f.AdaptCache,
		NoiseBucketWidth: f.NoiseBucket,
		AdaptRetries:     f.AdaptRetries,
		DisableFallback:  f.NoFallback,
	}
}

// NewModeler loads or pretrains the network (skipped with disableDNN) and
// wraps it in a core.Modeler configured from the flags — the shared modeler
// construction of perfmodeler and modelerd.
func (f *ModelerFlags) NewModeler(ctx context.Context, disableDNN, verbose bool) (*core.Modeler, error) {
	var pretrained *dnnmodel.Modeler
	if !disableDNN {
		var err error
		pretrained, err = LoadOrPretrain(ctx, f.NetOptions(verbose))
		if err != nil {
			return nil, err
		}
	}
	return core.New(pretrained, f.CoreConfig(disableDNN))
}
