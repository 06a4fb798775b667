// Command noisescan estimates the noise level of a measurement set with the
// range-of-relative-deviation heuristic and prints the per-point noise
// distribution (the analysis behind Fig. 5 of the paper).
//
//	noisescan -in measurements.txt -params 2
//	noisescan -profile app.json
//
// Exit codes: 0 full success, 1 fatal error, 3 some adaptation signatures
// could not be computed (-profile), 4 the -timeout deadline expired.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"extrapdnn/internal/cliutil"
	"extrapdnn/internal/core"
	"extrapdnn/internal/measurement"
	"extrapdnn/internal/noise"
	"extrapdnn/internal/obs"
	"extrapdnn/internal/parallel"
	"extrapdnn/internal/profile"
)

func main() {
	var (
		in          = flag.String("in", "-", `input file ("-" for stdin)`)
		format      = flag.String("format", "text", `input format: "text", "json" or "extrap"`)
		profilePath = flag.String("profile", "", "application profile (from appsim): analyze every kernel")
		params      = flag.Int("params", 0, "number of execution parameters (text format without header)")
		bins        = flag.Int("bins", 10, "histogram bins")
		workers     = flag.Int("workers", 0, "with -profile: concurrent analysis workers (0 = GOMAXPROCS)")
		bucketWidth = flag.Float64("noise-bucket", 0, "with -profile: noise-bucket width for adaptation-signature grouping (0 = default 2.5% steps, negative disables quantization)")
		timeout     = flag.Duration("timeout", 0, "overall deadline, e.g. 90s (0 = none); expiry exits with code 4")
	)
	obsFlags := cliutil.RegisterObsFlags()
	flag.Parse()

	ctx, cancel := cliutil.TimeoutContext(*timeout)
	defer cancel()

	obsShutdown, err := obsFlags.Setup("noisescan", false)
	if err != nil {
		fatal(err)
	}
	defer obsShutdown()

	if *profilePath != "" {
		sigFailures, err := scanProfile(ctx, *profilePath, *workers, *bucketWidth)
		if err != nil {
			fatal(err)
		}
		if sigFailures > 0 {
			fmt.Fprintf(os.Stderr, "noisescan: %d kernel(s) without adaptation signature, grouping above is partial\n", sigFailures)
			obsShutdown()
			os.Exit(cliutil.ExitPartialFailure)
		}
		return
	}

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	set, err := measurement.ReadFormat(r, *format, *params, measurement.ReadConfig{})
	if err != nil {
		fatal(err)
	}

	a := noise.Analyze(set)
	fmt.Printf("points:            %d (max %d repetitions)\n", len(set.Data), set.Repetitions())
	fmt.Printf("combined estimate: %.2f%% (range of relative deviation)\n", a.Global*100)
	fmt.Printf("per-point levels:  mean %.2f%%  median %.2f%%  min %.2f%%  max %.2f%%\n",
		a.Mean*100, a.Median*100, a.Min*100, a.Max*100)

	if *bins > 0 && a.Max > a.Min {
		fmt.Println("distribution:")
		width := (a.Max - a.Min) / float64(*bins)
		counts := make([]int, *bins)
		for _, l := range a.PointLevels {
			b := int((l - a.Min) / width)
			if b >= *bins {
				b = *bins - 1
			}
			counts[b]++
		}
		maxCount := 0
		for _, c := range counts {
			if c > maxCount {
				maxCount = c
			}
		}
		for b, c := range counts {
			bar := ""
			if maxCount > 0 {
				bar = strings.Repeat("#", c*40/maxCount)
			}
			fmt.Printf("  %6.2f%% – %6.2f%% | %-40s %d\n",
				(a.Min+float64(b)*width)*100, (a.Min+float64(b+1)*width)*100, bar, c)
		}
	}
}

// scanProfile analyzes the noise of every kernel in an application profile,
// one line per entry, and groups the kernels by adaptation task signature:
// kernels in one group share the experiment layout, repetition count and
// quantized noise bucket, so the adaptive modeler pays a single domain
// adaptation between them (see internal/adaptcache). Entries are analyzed
// concurrently; noise.Analyze is a pure function, so the output is identical
// for any worker count. Returns how many kernels have no usable adaptation
// signature (their sig column shows "-"); the caller maps that to exit code 3.
func scanProfile(ctx context.Context, path string, workers int, bucketWidth float64) (sigFailures int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	prof, err := profile.Read(f)
	if err != nil {
		return 0, err
	}
	scanCtx, scanSpan := obs.StartSpan(ctx, "noisescan.profile")
	if scanSpan != nil {
		scanSpan.SetInt("entries", int64(len(prof.Entries)))
		defer scanSpan.End()
	}
	type entryScan struct {
		analysis noise.Analysis
		sig      string
		sigErr   error
	}
	scans, errs := parallel.MapErrCtx(ctx, len(prof.Entries), workers, func(i int) (entryScan, error) {
		_, span := obs.StartSpan(scanCtx, "noisescan.entry")
		if span != nil {
			span.SetString(obs.KernelAttr, prof.Entries[i].Kernel)
			defer span.End()
		}
		s := entryScan{analysis: noise.Analyze(prof.Entries[i].Set)}
		s.sig, s.sigErr = core.TaskSignature(prof.Entries[i].Set, bucketWidth)
		return s, nil
	})
	// MapErrCtx only reports per-entry errors on cancellation or an isolated
	// panic; either way the table would be partial garbage, so bail out.
	if ctxErr := ctx.Err(); ctxErr != nil {
		return 0, ctxErr
	}
	if joined := errors.Join(errs...); joined != nil {
		return 0, joined
	}
	// Number signature groups in first-appearance order.
	groups := map[string]int{}
	for _, s := range scans {
		if s.sigErr == nil {
			if _, ok := groups[s.sig]; !ok {
				groups[s.sig] = len(groups) + 1
			}
		}
	}
	// With -trace: one span per signature group, so the trace records how
	// many kernels would share each domain adaptation.
	if obs.CurrentTracer() != nil {
		members := map[string]int{}
		for _, s := range scans {
			if s.sigErr == nil {
				members[s.sig]++
			}
		}
		for sig, id := range groups {
			_, gs := obs.StartSpan(scanCtx, "noisescan.siggroup")
			gs.SetInt("group", int64(id))
			gs.SetInt("kernels", int64(members[sig]))
			gs.End()
		}
	}
	fmt.Printf("application: %s (%d kernels, %d parameters)\n",
		prof.Application, len(prof.Kernels()), prof.NumParams())
	fmt.Printf("%-22s | %-8s | %-8s | %-8s | %-16s | %s\n", "kernel", "global", "mean", "median", "range", "sig")
	for i, e := range prof.Entries {
		a := scans[i].analysis
		sig := "-"
		if scans[i].sigErr == nil {
			sig = fmt.Sprintf("#%d", groups[scans[i].sig])
		} else {
			sigFailures++
		}
		fmt.Printf("%-22s | %6.2f%% | %6.2f%% | %6.2f%% | [%5.2f%%, %5.2f%%] | %s\n",
			e.Kernel, a.Global*100, a.Mean*100, a.Median*100, a.Min*100, a.Max*100, sig)
	}
	fmt.Printf("adaptation signatures: %d distinct across %d kernels (the adaptive modeler pays one domain adaptation per signature)\n",
		len(groups), len(prof.Entries))
	return sigFailures, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "noisescan:", err)
	os.Exit(cliutil.ExitCode(err))
}
