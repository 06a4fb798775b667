// Package cliutil provides the small shared pieces of the command-line
// tools: loading or pretraining classification networks, parsing topology
// flags, and table formatting.
package cliutil

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"extrapdnn/internal/dnnmodel"
	"extrapdnn/internal/modelregistry"
	"extrapdnn/internal/nn"
)

// Process exit codes shared by the CLI tools, so scripts and CI can
// distinguish "everything modeled" from "some kernels failed" from "the
// deadline expired".
const (
	ExitOK             = 0 // full success
	ExitFatal          = 1 // unusable input or total failure
	ExitPartialFailure = 3 // some items failed, others delivered results
	ExitTimeout        = 4 // the -timeout deadline expired (or ctx cancelled)
)

// TimeoutContext returns a context honoring a -timeout flag value: for d <= 0
// it is context.Background() with a no-op cancel, otherwise a deadline of d
// from now. Callers must call cancel either way.
func TimeoutContext(d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), d)
}

// ExitCode maps an error to the shared exit-code convention: nil → ExitOK,
// context cancellation or deadline expiry (anywhere in the error tree) →
// ExitTimeout, anything else → ExitFatal. Partial failure is a caller-side
// decision (the caller knows whether any results were delivered).
func ExitCode(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return ExitTimeout
	default:
		return ExitFatal
	}
}

// ParseTopology parses a -topology flag value: "default", "paper", "tiny",
// or a comma-separated list of hidden-layer sizes such as "256,128,64".
func ParseTopology(s string) ([]int, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "default":
		return dnnmodel.DefaultTopology, nil
	case "paper":
		return dnnmodel.PaperTopology, nil
	case "tiny":
		return dnnmodel.TinyTopology, nil
	}
	parts := strings.Split(s, ",")
	sizes := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("invalid topology %q: each entry must be a positive integer", s)
		}
		sizes = append(sizes, v)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("invalid topology %q", s)
	}
	return sizes, nil
}

// NetOptions configures LoadOrPretrain — the CLI tools fill it straight
// from their flags.
type NetOptions struct {
	// NetPath loads a saved network instead of pretraining.
	NetPath string
	// Topology, SamplesPerClass, Epochs and Seed configure the pretraining
	// run (ignored with NetPath).
	Topology        string
	SamplesPerClass int
	Epochs          int
	Seed            int64
	// Float32 selects the float32 SIMD fast path for training and inference
	// (the -f32 flag); default is the bit-pinned float64 arithmetic.
	Float32 bool
	// ModelDir enables the pretrained-network registry (the -model-dir flag):
	// a network pretrained under the same effective configuration is loaded
	// instead of retrained, and fresh results are stored for later runs.
	ModelDir string
	// Verbose prints the registry digest and hit/miss outcome to stderr.
	Verbose bool
}

// Precision returns the nn precision the options select.
func (o NetOptions) Precision() nn.Precision {
	if o.Float32 {
		return nn.Float32
	}
	return nn.Float64
}

// LoadOrPretrain returns a DNN modeler: loaded from o.NetPath when given,
// otherwise pretrained with the supplied settings (progress goes to stderr,
// keeping stdout clean for results). ctx bounds the pretraining run, which
// stops at the next epoch boundary. With a model dir, a run whose effective
// pretraining configuration was seen before loads the stored network and
// performs zero training epochs.
func LoadOrPretrain(ctx context.Context, o NetOptions) (*dnnmodel.Modeler, error) {
	if o.NetPath != "" {
		f, err := os.Open(o.NetPath)
		if err != nil {
			return nil, fmt.Errorf("open network: %w", err)
		}
		defer f.Close()
		net, err := nn.Load(f)
		if err != nil {
			return nil, fmt.Errorf("load network %s: %w", o.NetPath, err)
		}
		fmt.Fprintf(os.Stderr, "loaded pretrained network from %s (%d parameters)\n", o.NetPath, net.NumParams())
		return &dnnmodel.Modeler{Net: net, Precision: o.Precision()}, nil
	}
	hidden, err := ParseTopology(o.Topology)
	if err != nil {
		return nil, err
	}
	cfg := dnnmodel.PretrainConfig{
		Hidden:          hidden,
		SamplesPerClass: o.SamplesPerClass,
		Epochs:          o.Epochs,
		Seed:            o.Seed,
		Precision:       o.Precision(),
	}
	if o.ModelDir != "" {
		reg, err := modelregistry.Open(o.ModelDir)
		if err != nil {
			return nil, fmt.Errorf("model dir: %w", err)
		}
		cfg.Registry = reg
		if o.Verbose {
			fmt.Fprintf(os.Stderr, "model registry %s, digest %s\n", o.ModelDir, cfg.RegistryKey().Digest())
		}
	}
	fmt.Fprintf(os.Stderr, "pretraining network (topology %v, %d samples/class, %d epochs, %s)...\n",
		hidden, o.SamplesPerClass, o.Epochs, o.Precision())
	m, stats, err := dnnmodel.PretrainCtx(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("pretrain: %w", err)
	}
	if cfg.Registry != nil && len(stats.EpochLoss) == 0 {
		fmt.Fprintf(os.Stderr, "model registry hit: loaded pretrained network from %s (0 training epochs)\n", o.ModelDir)
	} else {
		fmt.Fprintf(os.Stderr, "pretraining done, final loss %.4f\n", stats.FinalLoss())
	}
	return m, nil
}

// ParseLevels parses a comma-separated list of noise percentages
// ("2,5,10,20") into fractions.
func ParseLevels(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("invalid noise level %q", p)
		}
		out = append(out, v/100)
	}
	return out, nil
}

// ParsePoint parses a comma-separated parameter-value vector such as
// "4096, 1e6" (the -predict and -at flags) and checks it has one value per
// model parameter.
func ParsePoint(s string, m int) ([]float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != m {
		return nil, fmt.Errorf("%d values given, model has %d parameters", len(parts), m)
	}
	out := make([]float64, m)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("invalid value %q: %w", p, err)
		}
		out[i] = v
	}
	return out, nil
}
