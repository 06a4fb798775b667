// Command perfmodeler creates a performance model from measurement data.
//
//	perfmodeler -in measurements.txt -params 2
//	perfmodeler -in measurements.json -format json -net network.bin
//	perfmodeler -in measurements.txt -params 1 -regression-only
//	perfmodeler -profile campaign.jsonl -server http://localhost:8080
//	perfmodeler -profile app.json -predict 32768,12,160
//
// With -profile every kernel of an application profile is modeled; -predict
// then adds a column with each kernel's model evaluated at that point.
//
// The text format holds one measurement point per line: the parameter
// values, then one or more repeated measured values. An optional
// "# params: p size" header names the parameters.
//
// With -server URL the modeling runs on a warm modelerd daemon instead of in
// this process: no local pretraining, and same-signature kernels across all
// of the daemon's clients share one adaptation. Inputs are read and validated
// locally, results stream back kernel by kernel, and -out-jsonl/-resume work
// unchanged — the daemon emits the exact JSONL lines a local run writes, so a
// campaign can even alternate between local and remote legs on one
// checkpoint file.
//
// Exit codes: 0 full success, 1 fatal error, 3 some kernels failed while
// others delivered models (-profile), 4 the -timeout deadline expired.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"

	"extrapdnn/internal/client"
	"extrapdnn/internal/cliutil"
	"extrapdnn/internal/core"
	"extrapdnn/internal/measurement"
	"extrapdnn/internal/parallel"
	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/profile"
	"extrapdnn/internal/regression"
	"extrapdnn/internal/scaling"
	"extrapdnn/internal/server"
)

func main() {
	var (
		in             = flag.String("in", "-", `input file ("-" for stdin)`)
		format         = flag.String("format", "text", `input format: "text", "json" or "extrap"`)
		profilePath    = flag.String("profile", "", "application profile (from appsim): model every kernel")
		kernelFilter   = flag.String("kernel", "", "with -profile: model only this kernel")
		params         = flag.Int("params", 0, "number of execution parameters (text format without header)")
		regressionOnly = flag.Bool("regression-only", false, "use only the classic regression modeler")
		serverURL      = flag.String("server", "", "offload modeling to a running modelerd at this base URL (e.g. http://localhost:8080); skips all local training")
		retries        = flag.Int("retries", client.DefaultMaxAttempts, "with -server: max consecutive attempts per request before giving up (1 = no retries, 0 = default)")
		retryBudget    = flag.Duration("retry-budget", client.DefaultBudget, "with -server: cumulative backoff sleep allowed across one call's retries")
		clientIDFlag   = flag.String("client-id", "", "with -server: X-Client-ID sent to the daemon's per-client fairness gate (empty = daemon keys on the remote address)")
		streamIdle     = flag.Duration("stream-idle-timeout", 0, "with -server -profile: reconnect and resume if the result stream is silent this long (0 = off; beware slow cache-miss adaptations)")
		outJSONL       = flag.String("out-jsonl", "", "with -profile: append one JSONL result line per kernel as it completes (the file doubles as the -resume checkpoint)")
		resume         = flag.Bool("resume", false, "with -profile and -out-jsonl: skip kernels already in the results file and append the rest")
		verbose        = flag.Bool("v", false, "print adaptation-cache statistics and the run-telemetry digest after modeling")
		timeout        = flag.Duration("timeout", 0, "overall deadline, e.g. 90s or 5m (0 = none); expiry exits with code 4")
		predict        = flag.String("predict", "", `comma-separated parameter values to predict after modeling, e.g. "4096,1e6" (with -profile: per kernel)`)
		scalingParam   = flag.Int("scaling", 0, "1-based index of the process-count parameter: grade the model's scalability (0 = off)")
		interval       = flag.Bool("interval", false, "with -predict: bootstrap a 95% prediction interval (regression refits)")
		jsonOut        = flag.Bool("json", false, "emit the selected model as JSON instead of the text report")
	)
	mf := cliutil.RegisterModelerFlags()
	obsFlags := cliutil.RegisterObsFlags()
	flag.Parse()

	ctx, cancel := cliutil.TimeoutContext(*timeout)
	defer cancel()

	obsShutdown, err := obsFlags.Setup("perfmodeler", *verbose)
	if err != nil {
		fatal(err)
	}
	defer obsShutdown()

	o := options{
		in: *in, format: *format, params: *params,
		profilePath: *profilePath, filter: *kernelFilter,
		outJSONL: *outJSONL, resume: *resume,
		predict: *predict, interval: *interval, scalingParam: *scalingParam,
		jsonOut: *jsonOut, verbose: *verbose,
		seed: mf.Seed, noSanitize: mf.NoSanitize,
	}
	if err := o.check(); err != nil {
		fatal(err)
	}
	var b backend
	if *serverURL != "" {
		if *regressionOnly {
			fatal(fmt.Errorf("-regression-only is a daemon-side choice in -server mode: start modelerd -regression-only instead"))
		}
		cl := client.New(*serverURL)
		cl.ClientID = *clientIDFlag
		cl.Retry = client.RetryPolicy{MaxAttempts: *retries, Budget: *retryBudget}
		cl.IdleTimeout = *streamIdle
		b = remote{cl}
	} else {
		modeler, err := mf.NewModeler(ctx, *regressionOnly, *verbose)
		if err != nil {
			fatal(err)
		}
		b = local{modeler, mf.Workers}
	}

	if o.profilePath == "" {
		modelSet(ctx, b, o)
		return
	}
	if code := runCampaign(ctx, b, o); code != cliutil.ExitOK {
		obsShutdown()
		os.Exit(code)
	}
}

// runCampaign is the -profile mode: it models the campaign on the backend,
// reports run-level errors and (-v) statistics, and returns the exit code.
func runCampaign(ctx context.Context, b backend, o options) int {
	failed, total, runErr := modelProfile(ctx, b, o)
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "perfmodeler:", runErr)
	}
	if o.verbose {
		b.printStats(ctx)
	}
	code := cliutil.CampaignExitCode(runErr, failed, total)
	if code == cliutil.ExitPartialFailure {
		fmt.Fprintf(os.Stderr, "perfmodeler: %d kernel(s) failed, results above are partial\n", failed)
	}
	return code
}

// options bundles the flags the modeling modes read.
type options struct {
	in, format   string
	params       int
	profilePath  string
	filter       string
	outJSONL     string
	resume       bool
	predict      string
	interval     bool
	scalingParam int
	jsonOut      bool
	verbose      bool
	seed         int64
	noSanitize   bool
}

// check rejects the single-set flags that -profile would silently ignore.
func (o options) check() error {
	if o.profilePath == "" {
		return nil
	}
	for _, f := range []struct {
		name string
		set  bool
	}{{"-interval", o.interval}, {"-scaling", o.scalingParam != 0}, {"-json", o.jsonOut}} {
		if f.set {
			return fmt.Errorf("%s applies to a single measurement set (-in) and cannot be combined with -profile", f.name)
		}
	}
	return nil
}

// backend is where the modeling runs: in this process or on a modelerd
// daemon. Input, checkpointing, output and exit codes are the same for both.
type backend interface {
	// model models one measurement set.
	model(ctx context.Context, set *measurement.Set) (report, error)
	// stream models a campaign and hands each kernel to emit in input order:
	// its result line, the resilience note of its table row, and (locally)
	// its modeling error, which the results writer needs to tell an
	// interrupted kernel from a failed one.
	stream(ctx context.Context, app string, paramNames []string, src profile.Source,
		emit func(line cliutil.ResultLine, note string, entryErr error) error) error
	// printStats prints the -v adaptation-cache report.
	printStats(ctx context.Context)
}

// report is one modeled measurement set as the single-set mode prints it.
type report struct {
	server.ModelResponse
	fallbackErr error  // why a local run degraded; the wire form omits it
	timing      string // the "modeling time:" value
}

// local models in this process with a pretrained (or loaded) network.
type local struct {
	modeler *core.Modeler
	workers int
}

func (l local) model(ctx context.Context, set *measurement.Set) (report, error) {
	rep, err := l.modeler.ModelCtx(ctx, set)
	if err != nil {
		return report{}, err
	}
	return report{server.NewModelResponse(rep), rep.Resilience.FallbackErr,
		fmt.Sprintf("%v (adaptation %v)", rep.Durations.Total, rep.Durations.Adapt)}, nil
}

func (l local) stream(ctx context.Context, _ string, _ []string, src profile.Source,
	emit func(cliutil.ResultLine, string, error) error) error {
	return l.modeler.ModelStream(ctx, src, parallel.StreamConfig{Workers: l.workers, Ordered: true},
		func(_ int, e profile.Entry, rep core.Report, err error) error {
			return emit(cliutil.NewResultLine(e, rep, err), cliutil.ResilienceNote(rep.Resilience), err)
		})
}

func (l local) printStats(context.Context) {
	cliutil.PrintCacheStats(os.Stdout, l.modeler.CacheStats())
	cliutil.PrintRunSummary(os.Stdout)
}

// remote models on a modelerd daemon (-server).
type remote struct{ cl *client.Client }

func (r remote) model(ctx context.Context, set *measurement.Set) (report, error) {
	resp, err := r.cl.Model(ctx, set)
	if err != nil {
		return report{}, err
	}
	return report{ModelResponse: *resp, timing: fmt.Sprintf("%.1fms on the daemon (adaptation %.1fms)",
		resp.Durations.TotalMS, resp.Durations.AdaptMS)}, nil
}

// stream hands on the daemon's lines verbatim: they are already in the
// canonical checkpoint format, which keeps remote results files
// byte-identical to local ones, so local and remote legs can share one
// -resume file.
func (r remote) stream(ctx context.Context, app string, paramNames []string, src profile.Source,
	emit func(cliutil.ResultLine, string, error) error) error {
	_, err := r.cl.StreamProfile(ctx, app, paramNames, src, func(line cliutil.ResultLine) error {
		note := ""
		if line.Fallback != "" {
			note = fmt.Sprintf("  [degraded: %s fallback]", line.Fallback)
		}
		return emit(line, note, nil)
	})
	return err
}

// printStats reports the daemon's adaptation cache, which is where the
// hit/miss counters of a -server run live.
func (r remote) printStats(ctx context.Context) {
	h, err := r.cl.Health(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfmodeler: daemon stats unavailable: %v\n", err)
		return
	}
	fmt.Printf("daemon: %s, %d request(s), %d kernel(s), adaptation cache %d hit(s) / %d miss(es)\n",
		h.Status, h.Requests, h.Kernels, h.CacheHits, h.CacheMisses)
}

// modelSet is the single-set mode: read and validate -in locally, model it
// on the backend, and print the report (or -json), -predict and -scaling.
func modelSet(ctx context.Context, b backend, o options) {
	set, err := readInput(o.in, o.format, o.params, o.noSanitize)
	if err != nil {
		fatal(err)
	}
	rep, err := b.model(ctx, set)
	if err != nil {
		fatal(err)
	}
	if o.jsonOut {
		printJSONReport(jsonReport{rep.Model, rep.SMAPE, rep.Noise.Global,
			rep.SelectedDNN, rep.UsedRegression, rep.Fallback,
			rep.AdaptAttempts, rep.Resilience})
		return
	}

	fmt.Printf("measurements:      %d points, %d repetitions max\n", len(set.Data), set.Repetitions())
	fmt.Printf("estimated noise:   %.2f%% (per-point mean %.2f%%, range [%.2f%%, %.2f%%])\n",
		rep.Noise.Global*100, rep.Noise.Mean*100, rep.Noise.Min*100, rep.Noise.Max*100)
	selected := "regression"
	if rep.SelectedDNN {
		selected = "dnn"
	}
	fmt.Printf("modelers used:     regression=%v dnn=%v (selected: %s)\n",
		rep.UsedRegression, rep.UsedDNN, selected)
	if rep.Fallback != "" {
		cause := ""
		if rep.fallbackErr != nil {
			cause = ": " + rep.fallbackErr.Error()
		}
		fmt.Printf("degraded:          %s fallback after %d adaptation attempt(s)%s\n",
			rep.Fallback, rep.AdaptAttempts, cause)
	} else if rep.Resilience == core.OutcomeRetried {
		// A successful retry is healthy output but not a first-try success;
		// surface it instead of conflating the two.
		fmt.Printf("recovered:         adaptation succeeded on attempt %d after divergence retries\n",
			rep.AdaptAttempts)
	}
	fmt.Printf("model:             %s\n", rep.Model)
	fmt.Printf("cross-val SMAPE:   %.3f%%\n", rep.SMAPE)
	if rep.Regression != nil && rep.DNN != nil {
		fmt.Printf("  regression:      %s  (SMAPE %.3f%%)\n", rep.Regression.Model, rep.Regression.SMAPE)
		fmt.Printf("  dnn:             %s  (SMAPE %.3f%%)\n", rep.DNN.Model, rep.DNN.SMAPE)
	}
	fmt.Printf("modeling time:     %s\n", rep.timing)
	if o.verbose {
		b.printStats(ctx)
	}

	if err := printPrediction(rep.Model, o.predict, o.interval, set, o.seed); err != nil {
		fatal(err)
	}
	if err := printScaling(rep.Model, o.scalingParam); err != nil {
		fatal(err)
	}
}

// jsonReport is the -json output shape, shared by local and -server runs so
// scripts parse one format regardless of where the modeling happened.
type jsonReport struct {
	Model          pmnf.Model `json:"model"`
	SMAPE          float64    `json:"smape_pct"`
	NoiseGlobal    float64    `json:"noise_global"`
	SelectedDNN    bool       `json:"selected_dnn"`
	UsedRegression bool       `json:"used_regression"`
	Fallback       string     `json:"fallback,omitempty"`
	AdaptAttempts  int        `json:"adapt_attempts,omitempty"`
	Resilience     string     `json:"resilience"`
}

func printJSONReport(out jsonReport) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

// printPrediction evaluates -predict (and -interval) against the selected
// model. The interval refits regressions locally from the measurement set, so
// it works identically for local and remote models.
func printPrediction(model pmnf.Model, predict string, interval bool, set *measurement.Set, seed int64) error {
	if predict == "" {
		return nil
	}
	pt, err := cliutil.ParsePoint(predict, model.NumParams())
	if err != nil {
		return fmt.Errorf("-predict: %w", err)
	}
	fmt.Printf("prediction at %v:  %g\n", pt, model.Eval(pt))
	if interval {
		ci, err := regression.PredictionInterval(set, pt, 200, 0.95, seed, nil)
		if err != nil {
			return err
		}
		fmt.Printf("95%% interval:      [%g, %g]\n", ci.Lo, ci.Hi)
	}
	return nil
}

// printScaling grades -scaling against the selected model.
func printScaling(model pmnf.Model, scalingParam int) error {
	if scalingParam <= 0 {
		return nil
	}
	analysis, err := scaling.Analyze(model, scalingParam-1, nil)
	if err != nil {
		return err
	}
	fmt.Printf("scaling:           %s in x%d → %s\n",
		analysis.GrowthClass, scalingParam, analysis.Verdict)
	return nil
}

// modelProfile models every kernel of an application profile (or a single
// kernel when -kernel is set) on the backend, streaming: entries are decoded,
// modeled with bounded concurrency, and printed (and, with -out-jsonl,
// appended to the results file) in input order as they complete — a
// campaign of any size runs in O(workers) memory and a killed run keeps
// everything already printed. The profile is scanned, validated and
// checkpoint-filtered locally, so a resumed run never models (or sends)
// completed entries. Since each result line is a pure function of its
// entry's measurement set, the output is identical for any worker count and
// either backend, and a resumed run appends lines byte-identical to an
// uninterrupted run's. A failed kernel never takes the others down: it
// prints an error line and counts toward the returned failure total (exit
// code 3).
func modelProfile(ctx context.Context, b backend, o options) (failed, total int, err error) {
	f, err := os.Open(o.profilePath)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc, err := profile.NewScannerWith(f, profile.ReadOptions{
		Read: measurement.ReadConfig{NoSanitize: o.noSanitize},
		OnSanitize: func(e *profile.Entry, rep measurement.SanitizeReport) {
			fmt.Fprintf(os.Stderr, "perfmodeler: %s: sanitized input: %s\n", e.Kernel, rep.String())
		},
	})
	if err != nil {
		return 0, 0, err
	}
	var src profile.Source = sc
	if o.filter != "" {
		src = profile.Filter(src, func(e profile.Entry) bool { return e.Kernel == o.filter })
	}
	sink, src, err := openResults(o, src)
	if err != nil {
		return 0, 0, err
	}
	defer sink.close()

	fmt.Printf("application: %s (%d parameters)\n", sc.Application(), sc.NumParams())

	// Pull the first remaining entry before modeling: a fully checkpointed
	// (or fully filtered) campaign has nothing to model, and the daemon
	// rightly rejects an entry-less profile. The scanner has then seen an
	// entry, so its parameter count checks -predict.
	first, err := src.NextEntry()
	exhausted := err == io.EOF
	if err != nil && !exhausted {
		return 0, 0, err
	}
	var point []float64
	if o.predict != "" {
		if point, err = cliutil.ParsePoint(o.predict, sc.NumParams()); err != nil {
			return 0, 0, fmt.Errorf("-predict: %w", err)
		}
	}
	if exhausted {
		if sink.checkpointed != nil && sink.checkpointed.Skipped() > 0 {
			fmt.Printf("resumed: %d kernel(s) already in %s, 0 newly modeled\n",
				sink.checkpointed.Skipped(), o.outJSONL)
			return 0, 0, nil
		}
		// The scanner rejects an entry-less profile, so only -kernel can
		// have emptied the source.
		return 0, 0, fmt.Errorf("no kernel matched %q", o.filter)
	}
	src = &prepended{first: &first, rest: src}
	// Each row's model prints the parameter names of its own entry's set,
	// and the entries of one profile may name or order them differently.
	var names sync.Map // [kernel, metric] → that entry's parameter names
	if point != nil {
		src = namesTap{src, &names}
	}

	label := "f(" + o.predict + ")"
	width := max(len(label), 10) // of the f(P) column
	if point != nil {
		fmt.Printf("%-22s | %-8s | %-9s | %-*s | %s\n", "kernel", "noise", "SMAPE", width, label, "model")
	} else {
		fmt.Printf("%-22s | %-8s | %-9s | %s\n", "kernel", "noise", "SMAPE", "model")
	}
	runErr := b.stream(ctx, sc.Application(), sc.ParamNames(), src,
		func(line cliutil.ResultLine, note string, entryErr error) error {
			// The JSONL checkpoint write comes first: a line is only printed
			// once it is durable, and a cancellation halts here
			// (ErrInterrupted) before anything half-done reaches the file.
			if sink.rw != nil {
				if wErr := sink.rw.WriteResult(line, entryErr); wErr != nil {
					return wErr
				}
			}
			total++
			v, _ := names.LoadAndDelete([2]string{line.Kernel, line.Metric})
			if line.Error != "" {
				failed++
				fmt.Printf("%-22s | modeling failed: %s\n", line.Kernel, line.Error)
				return nil
			}
			if point == nil {
				fmt.Printf("%-22s | %6.2f%% | %8.3f%% | %s%s\n",
					line.Kernel, line.Noise*100, line.SMAPE, line.Model, note)
				return nil
			}
			// Evaluate the model as the row prints it, so local and -server
			// tables agree byte for byte.
			paramNames, _ := v.([]string)
			model, pErr := pmnf.ParseNamed(line.Model, paramNames)
			if pErr != nil {
				return fmt.Errorf("kernel %s: model %q: %w", line.Kernel, line.Model, pErr)
			}
			fmt.Printf("%-22s | %6.2f%% | %8.3f%% | %-*.4g | %s%s\n",
				line.Kernel, line.Noise*100, line.SMAPE, width, model.Eval(point), line.Model, note)
			return nil
		})
	if sink.checkpointed != nil {
		fmt.Printf("resumed: %d kernel(s) already in %s, %d newly modeled\n",
			sink.checkpointed.Skipped(), o.outJSONL, total)
	}
	// A deadline expiry outranks partial failure: the missing kernels were
	// never tried, so the caller should see exit code 4, not 3.
	if runErr == nil {
		runErr = ctx.Err()
	}
	return failed, total, runErr
}

// prepended puts one already-pulled entry back in front of a source.
type prepended struct {
	first *profile.Entry
	rest  profile.Source
}

func (p *prepended) NextEntry() (profile.Entry, error) {
	if p.first != nil {
		e := *p.first
		p.first = nil
		return e, nil
	}
	return p.rest.NextEntry()
}

// namesTap records the parameter names of every entry it passes on. The
// backend pulls entries and emits rows on different goroutines.
type namesTap struct {
	profile.Source
	names *sync.Map
}

func (n namesTap) NextEntry() (profile.Entry, error) {
	e, err := n.Source.NextEntry()
	if err == nil {
		n.names.Store([2]string{e.Kernel, e.Metric}, e.Set.ParamNames)
	}
	return e, err
}

// resultsSink is the open -out-jsonl results/checkpoint stream.
type resultsSink struct {
	rw           *cliutil.ResultWriter
	file         *os.File
	checkpointed *profile.Filtered
}

func (s *resultsSink) close() {
	if s.file != nil {
		s.file.Close()
	}
}

// openResults prepares the -out-jsonl results stream: truncate for a fresh
// run or, with -resume, load the existing file's done-set and wrap src so
// completed entries are skipped entirely (zero redundant adaptations — local
// or remote). The returned source replaces src.
func openResults(o options, src profile.Source) (*resultsSink, profile.Source, error) {
	sink := &resultsSink{}
	if o.outJSONL == "" {
		if o.resume {
			return nil, nil, fmt.Errorf("-resume requires -out-jsonl")
		}
		return sink, src, nil
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if o.resume {
		flags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
		if prev, openErr := os.Open(o.outJSONL); openErr == nil {
			done, lines, ckErr := cliutil.ReadCheckpoint(prev)
			prev.Close()
			if ckErr != nil {
				return nil, nil, fmt.Errorf("resume from %s: %w", o.outJSONL, ckErr)
			}
			if lines > 0 {
				sink.checkpointed = profile.Filter(src, func(e profile.Entry) bool {
					return !done[cliutil.CheckpointKey(e.Kernel, e.Metric)]
				})
				src = sink.checkpointed
			}
		} else if !os.IsNotExist(openErr) {
			return nil, nil, openErr
		}
	}
	out, openErr := os.OpenFile(o.outJSONL, flags, 0o644)
	if openErr != nil {
		return nil, nil, openErr
	}
	sink.file = out
	sink.rw = cliutil.NewResultWriter(out)
	return sink, src, nil
}

func readInput(path, format string, params int, noSanitize bool) (*measurement.Set, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	var rep measurement.SanitizeReport
	set, err := measurement.ReadFormat(r, format, params, measurement.ReadConfig{NoSanitize: noSanitize, Report: &rep})
	if err != nil {
		return nil, err
	}
	if !rep.Clean() {
		fmt.Fprintf(os.Stderr, "perfmodeler: sanitized input: %s\n", rep.String())
	}
	return set, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfmodeler:", err)
	os.Exit(cliutil.ExitCode(err))
}
