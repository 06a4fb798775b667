// Command modeleval evaluates a PMNF performance model — as printed by
// perfmodeler or written by hand — at given parameter values, or tabulates
// it over a scaling range:
//
//	modeleval -model "8.51 + 0.11*x1^(1/3)*x2*x3^(4/5)" -at 32768,12,160
//	modeleval -model "5 + 2*x1*log2(x1)" -sweep 1 -from 64 -to 4096 -steps 7
//	modeleval -profile app.json -at 32768,12 -v
//
// A sweep doubles (geometric spacing) parameter -sweep from -from to -to
// while holding the remaining parameters at the values given by -at.
// With -profile, every kernel of an application profile is modeled with the
// adaptive modeler (sharing one domain-adaptation cache) and each selected
// model is evaluated at the -at point; -v additionally prints the cache
// statistics.
//
// Exit codes: 0 full success, 1 fatal error, 3 some kernels failed while
// others delivered models (-profile), 4 the -timeout deadline expired.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"

	"extrapdnn/internal/cliutil"
	"extrapdnn/internal/core"
	"extrapdnn/internal/dnnmodel"
	"extrapdnn/internal/parallel"
	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/profile"
)

func main() {
	var (
		modelStr    = flag.String("model", "", "PMNF model expression")
		profilePath = flag.String("profile", "", "application profile (from appsim): model every kernel and evaluate at -at")
		netPath     = flag.String("net", "", "with -profile: pretrained network file; pretrains ad hoc when empty")
		f32         = flag.Bool("f32", false, "with -profile: run DNN training and inference through the float32 SIMD fast path")
		modelDir    = flag.String("model-dir", "", "with -profile: pretrained-network registry directory (reuse pretraining across runs)")
		adaptCache  = flag.Int("adapt-cache", 32, "with -profile: LRU entries of the domain-adaptation cache (0 disables)")
		verbose     = flag.Bool("v", false, "with -profile: print adaptation-cache statistics and the run-telemetry digest")
		seed        = flag.Int64("seed", 1, "with -profile: random seed")
		at          = flag.String("at", "", "comma-separated parameter values")
		sweep       = flag.Int("sweep", 0, "1-based index of the parameter to sweep (0 = no sweep)")
		from        = flag.Float64("from", 0, "sweep start value")
		to          = flag.Float64("to", 0, "sweep end value")
		steps       = flag.Int("steps", 8, "sweep steps")
		workers     = flag.Int("workers", 0, "concurrent evaluation/modeling workers (0 = GOMAXPROCS)")
		timeout     = flag.Duration("timeout", 0, "overall deadline, e.g. 90s or 5m (0 = none); expiry exits with code 4")
	)
	obsFlags := cliutil.RegisterObsFlags()
	flag.Parse()

	ctx, cancel := cliutil.TimeoutContext(*timeout)
	defer cancel()

	obsShutdown, err := obsFlags.Setup("modeleval", *verbose)
	if err != nil {
		fatal(err)
	}
	defer obsShutdown()

	if *profilePath != "" {
		opts := cliutil.NetOptions{
			NetPath: *netPath, Topology: "default", SamplesPerClass: 300, Epochs: 3,
			Seed: *seed, Float32: *f32, ModelDir: *modelDir, Verbose: *verbose,
		}
		failed, err := evalProfile(ctx, *profilePath, opts, *at, *adaptCache, *workers, *seed, *verbose)
		if err != nil {
			fatal(err)
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "modeleval: %d kernel(s) failed, results above are partial\n", failed)
			obsShutdown()
			os.Exit(cliutil.ExitPartialFailure)
		}
		return
	}
	if *modelStr == "" {
		fatal(fmt.Errorf("-model or -profile is required"))
	}
	model, err := pmnf.Parse(*modelStr)
	if err != nil {
		fatal(err)
	}
	m := model.NumParams()

	values := make([]float64, m)
	if *at != "" {
		if values, err = cliutil.ParsePoint(*at, m); err != nil {
			fatal(fmt.Errorf("-at: %w", err))
		}
	}

	fmt.Printf("model: %s\n", model)
	if *sweep == 0 {
		if *at == "" {
			fatal(fmt.Errorf("need -at or -sweep"))
		}
		fmt.Printf("f(%s) = %g\n", *at, model.Eval(values))
		return
	}

	idx := *sweep - 1
	if idx < 0 || idx >= m {
		fatal(fmt.Errorf("-sweep %d out of range for %d parameters", *sweep, m))
	}
	if *from <= 0 || *to <= *from || *steps < 2 {
		fatal(fmt.Errorf("need 0 < -from < -to and -steps >= 2"))
	}
	ratio := math.Pow(*to / *from, 1/float64(*steps-1))
	xs := make([]float64, *steps)
	x := *from
	for s := range xs {
		xs[s] = x
		x *= ratio
	}
	// Evaluate the sweep points concurrently (each worker on its own copy of
	// the value vector), then print in order.
	results := parallel.Map(*steps, *workers, func(s int) float64 {
		vs := append([]float64(nil), values...)
		vs[idx] = xs[s]
		return model.Eval(vs)
	})
	fmt.Printf("%-14s | %s\n", fmt.Sprintf("x%d", *sweep), "f")
	for s := 0; s < *steps; s++ {
		fmt.Printf("%-14g | %g\n", xs[s], results[s])
	}
}

// evalProfile models every kernel of an application profile with the
// adaptive modeler — all kernels share one domain-adaptation cache, so
// equal-signature kernels pay a single adaptation — and evaluates each
// selected model at the -at point. A failed kernel never takes the others
// down: it prints an error line and counts toward the returned failure total.
func evalProfile(ctx context.Context, path string, netOpts cliutil.NetOptions, at string, adaptCache, workers int, seed int64, verbose bool) (failed int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	prof, err := profile.Read(f)
	if err != nil {
		return 0, err
	}
	var point []float64
	if at != "" {
		if point, err = cliutil.ParsePoint(at, prof.NumParams()); err != nil {
			return 0, fmt.Errorf("-at: %w", err)
		}
	}
	pretrained, err := cliutil.LoadOrPretrain(ctx, netOpts)
	if err != nil {
		return 0, err
	}
	modeler, err := core.New(pretrained, core.Config{
		Adapt:          dnnmodel.AdaptConfig{Precision: netOpts.Precision()},
		Seed:           seed,
		AdaptCacheSize: adaptCache,
	})
	if err != nil {
		return 0, err
	}
	fmt.Printf("application: %s (%d kernels, %d parameters)\n",
		prof.Application, len(prof.Kernels()), prof.NumParams())
	header := fmt.Sprintf("%-22s | %-9s | %s", "kernel", "SMAPE", "model")
	if point != nil {
		header = fmt.Sprintf("%-22s | %-9s | %-14s | %s", "kernel", "SMAPE", fmt.Sprintf("f(%s)", at), "model")
	}
	fmt.Println(header)
	// Rows print in input order as kernels complete; on a deadline, kernels
	// that never started print nothing.
	streamErr := modeler.ModelStream(ctx, profile.Entries(prof.Entries), parallel.StreamConfig{Workers: workers, Ordered: true},
		func(_ int, e profile.Entry, rep core.Report, err error) error {
			if err != nil {
				failed++
				fmt.Printf("%-22s | modeling failed: %v\n", e.Kernel, err)
				return nil
			}
			note := cliutil.ResilienceNote(rep.Resilience)
			if point != nil {
				fmt.Printf("%-22s | %8.3f%% | %-14g | %s%s\n",
					e.Kernel, rep.Model.SMAPE, rep.Model.Model.Eval(point), rep.Model.Model, note)
			} else {
				fmt.Printf("%-22s | %8.3f%% | %s%s\n", e.Kernel, rep.Model.SMAPE, rep.Model.Model, note)
			}
			return nil
		})
	if verbose {
		cliutil.PrintCacheStats(os.Stdout, modeler.CacheStats())
		cliutil.PrintRunSummary(os.Stdout)
	}
	// A deadline expiry (the stream's only possible error here) outranks
	// partial failure: the missing kernels were never tried, so the caller
	// should see exit code 4, not 3.
	if streamErr == nil {
		streamErr = ctx.Err()
	}
	return failed, streamErr
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "modeleval:", err)
	os.Exit(cliutil.ExitCode(err))
}
