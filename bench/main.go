// Command bench is the repository benchmark. It runs one workload against the
// modeler — in-process through the public extrapdnn API for the campaign
// workloads, or against a cmd/modelerd child process over loopback HTTP for
// the serving workloads — checks every output, and prints each metric by name
// with its unit and sample count. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics of BENCHMARK.json, or with -trace 1 its
// per-layer metrics. Run it from the repository root through bench/run.sh,
// which builds this program and modelerd first:
//
//	bash bench/run.sh --workload serve-hit --seed 1 --seconds 8 --trace 0
//
// See bench/README.md for the workloads, the metrics and their bounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are the gated metrics every untraced run reports. Each workload
// defines what its latency times — a result line since its campaign began,
// a request since it was due; see README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"throughput_kps", "1/s"},
	{"peak_rss_mb", "MB"},
	{"accuracy_pct", "%"},
}

// perLayer are the metrics a traced run reports, named after the module whose
// function the bench timed or whose counter it read.
var perLayer = []metricDef{
	{"regression.model_ms", "ms"},
	{"regression.fitline_us", "us"},
	{"regression.combine_ms", "ms"},
	{"dnnmodel.model_ms", "ms"},
	{"dnnmodel.adapt_ms", "ms"},
	{"dnnmodel.build_dataset_ms", "ms"},
	{"dnnmodel.pretrain_s", "s"},
	{"nn.train_ms", "ms"},
	{"nn.train_epochs", "count"},
	{"nn.topk_us_per_row", "us"},
	{"mat.multo_gflops.64x64x48", "GFLOP/s"},
	{"mat.multo_gflops.256x64x64", "GFLOP/s"},
	{"noise.analyze_us", "us"},
	{"measurement.read_json_us", "us"},
	{"profile.scan_us_per_kernel", "us"},
	{"core.model_ms", "ms"},
	{"core.stage_coverage_pct", "%"},
	{"core.alloc_kb_per_kernel", "KB"},
	{"core.adapt_ms_per_kernel", "ms"},
	{"core.dnn_ms_per_kernel", "ms"},
	{"core.regression_ms_per_kernel", "ms"},
	{"adaptcache.hits", "count"},
	{"adaptcache.misses", "count"},
	{"adaptcache.hit_ratio", "ratio"},
	{"adaptcache.singleflight_waits", "count"},
	{"server.overhead_us", "us"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *env) error{
	"campaign-cold": campaignCold,
	"campaign-warm": campaignWarm,
	"serve-hit":     serveHit,
	"serve-mixed":   serveMixed,
}

// config sizes a run. defaultConfig is the benchmark; tests shrink it.
type config struct {
	seconds         float64 // measured window of one run
	setupReps       int     // pretrainings per campaign run; setup_s is their median
	topology        []int   // hidden layers; nil is the CLI default topology
	pretrainSamples int     // pretraining samples per class
	pretrainEpochs  int
	adaptSamples    int    // domain-adaptation samples per class
	newCampaigns    int    // most new campaigns serve-mixed runs in its window
	modelerd        string // daemon binary for the serving workloads
	out             string // directory for traces, result files and scratch
	trace           bool
}

// defaultConfig holds the CLI defaults of perfmodeler and modelerd.
func defaultConfig() config {
	return config{
		seconds:         10,
		setupReps:       3,
		pretrainSamples: 300,
		pretrainEpochs:  3,
		adaptSamples:    200,
		newCampaigns:    16,
		out:             ".bench_out",
	}
}

func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// sample is one reported metric value.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"` // measurements behind the value
}

// report is the outcome of one run.
type report struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Trace       bool              `json:"trace"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Failures    []string          `json:"failures,omitempty"`
	Metrics     map[string]sample `json:"metrics"`
	Diagnostics map[string]sample `json:"diagnostics"`
}

// units maps every metric of the catalog to its unit.
var units = func() map[string]string {
	u := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		u[d.name] = d.unit
	}
	return u
}()

// set records a metric of the catalog; an unknown name is a bench bug.
func (r *report) set(name string, v float64, n int) {
	unit, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is not in the catalog")
	}
	r.Metrics[name] = sample{Value: v, Unit: unit, N: n}
}

// diag records an ungated diagnostic; one that could not be measured is left
// out.
func (r *report) diag(name, unit string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	r.Diagnostics[name] = sample{Value: v, Unit: unit, N: n}
}

// env is what a workload runner works with.
type env struct {
	cfg  config
	seed int64
	rep  *report
	chk  *checker
	tr   *tracer // nil in untraced runs
	live liveStats
	// attempts counts the adaptation training runs the program reported; more
	// than one per signature means divergence retries.
	attempts atomic.Int64
}

func main() {
	cfg := defaultConfig()
	workload := flag.String("workload", "", "workload to run: campaign-cold, campaign-warm, serve-hit, serve-mixed, or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "measured window of the run in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant: per-layer metrics, spans and a summary under -out")
	flag.StringVar(&cfg.modelerd, "modelerd", "", "modelerd binary (required by the serving workloads)")
	flag.StringVar(&cfg.out, "out", cfg.out, "directory for traces, result files and scratch files")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	cfg.trace = *trace == 1
	if cfg.seconds <= 0 {
		fatalf("-seconds must be positive")
	}

	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for name := range workloads {
			names = append(names, name)
		}
		sort.Strings(names)
	} else if workloads[*workload] == nil {
		fatalf("unknown workload %q", *workload)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code := 0
	for _, name := range names {
		rep, err := run(ctx, cfg, name, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			code = 2
			continue
		}
		if err := emit(os.Stdout, cfg, rep); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			code = 2
			continue
		}
		if !rep.Correct && code == 0 {
			code = 1
		}
	}
	stop()
	os.Exit(code)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// run executes one workload and returns its report.
func run(ctx context.Context, cfg config, workload string, seed int64) (*report, error) {
	e := &env{
		cfg:  cfg,
		seed: seed,
		rep: &report{
			Workload:    workload,
			Seed:        seed,
			Trace:       cfg.trace,
			Metrics:     map[string]sample{},
			Diagnostics: map[string]sample{},
		},
		chk: newChecker(),
	}
	if cfg.trace {
		e.tr = newTracer()
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	if err := workloads[workload](ctx, e); err != nil {
		return nil, err
	}
	e.rep.diag("core.adapt_attempts", "count", float64(e.attempts.Load()), 1)
	e.chk.score(e.rep)
	e.chk.require(e.rep, endToEnd)
	if cfg.trace {
		e.live.report(e.rep)
		e.chk.require(e.rep, perLayer)
	}
	e.chk.fill(e.rep)
	if cfg.trace {
		if err := e.tr.write(e.traceDir(), e.rep); err != nil {
			return nil, err
		}
	}
	return e.rep, nil
}

func (e *env) traceDir() string {
	return filepath.Join(e.cfg.out, "trace", fmt.Sprintf("%s-seed%d", e.rep.Workload, e.seed))
}

// emit prints the run's metrics and diagnostics, stores the full report under
// the output directory, and prints the result object as the last line.
func emit(w io.Writer, cfg config, rep *report) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]metric{}}
	defs := endToEnd
	if rep.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		s, ok := rep.Metrics[d.name]
		if !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		result.Metrics[d.name] = metric{s.Value, s.Unit}
		fmt.Fprintf(w, "metric %-32s %14.4f %-8s n=%d\n", d.name, s.Value, s.Unit, s.N)
	}
	if rep.Trace {
		// The traced run's end-to-end values, to set against an untraced run
		// of the same seed: the difference is the tracing overhead.
		for _, d := range endToEnd {
			s := rep.Metrics[d.name]
			fmt.Fprintf(w, "traced %-32s %14.4f %-8s n=%d\n", d.name, s.Value, s.Unit, s.N)
		}
	}
	var diags []string
	for name := range rep.Diagnostics {
		diags = append(diags, name)
	}
	sort.Strings(diags)
	for _, name := range diags {
		s := rep.Diagnostics[name]
		fmt.Fprintf(w, "diag   %-32s %14.4f %-8s n=%d\n", name, s.Value, s.Unit, s.N)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(os.Stderr, "bench: check failed: %s\n", f)
	}

	dir := filepath.Join(cfg.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Seed, btoi(rep.Trace))
	if err := os.WriteFile(filepath.Join(dir, name), append(full, '\n'), 0o644); err != nil {
		return err
	}

	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
