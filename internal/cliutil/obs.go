package cliutil

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"time"

	"extrapdnn/internal/adaptcache"
	"extrapdnn/internal/obs"
)

// ObsFlags is the shared observability flag trio of the CLI tools (see
// docs/OBSERVABILITY.md). Register with RegisterObsFlags, activate with Setup.
type ObsFlags struct {
	// MetricsAddr serves /metrics (Prometheus text) and /metrics.json on this
	// address while the tool runs; empty disables the listener.
	MetricsAddr string
	// TracePath writes a JSONL span trace of the run to this file.
	TracePath string
	// TraceSample keeps one trace in every N (<= 1 keeps all). The decision is
	// a pure function of the trace ID, so a client and a daemon configured with
	// the same rate agree on which traces to record across processes.
	TraceSample int
	// Pprof additionally serves net/http/pprof under /debug/pprof/ on
	// MetricsAddr.
	Pprof bool
}

// RegisterObsFlags registers the -metrics-addr, -trace and -pprof flags on
// the process-wide flag set and returns the struct they fill.
func RegisterObsFlags() *ObsFlags {
	f := &ObsFlags{}
	flag.StringVar(&f.MetricsAddr, "metrics-addr", "",
		`serve Prometheus metrics on this address while running, e.g. "localhost:9090" (/metrics, /metrics.json; empty = off)`)
	flag.StringVar(&f.TracePath, "trace", "",
		"write a JSONL span trace of the run to this file (empty = off)")
	flag.IntVar(&f.TraceSample, "trace-sample", 1,
		"with -trace: keep one trace in every N (deterministic by trace ID; 1 = keep all)")
	flag.BoolVar(&f.Pprof, "pprof", false,
		"with -metrics-addr: also serve net/http/pprof under /debug/pprof/")
	return f
}

// Setup activates the observability the flags (plus -v) ask for: it enables
// metric collection, installs a tracer — file-backed for -trace, collect-only
// for a bare -v so the digest has data — and starts the metrics listener.
// With everything off it is a no-op returning a no-op shutdown. The returned
// shutdown is idempotent and must run before process exit (it uninstalls the
// tracer and flushes the trace file); call it explicitly before os.Exit paths
// that bypass defers.
func (f *ObsFlags) Setup(tool string, verbose bool) (shutdown func(), err error) {
	if f.Pprof && f.MetricsAddr == "" {
		return nil, fmt.Errorf("-pprof requires -metrics-addr")
	}
	if f.MetricsAddr == "" && f.TracePath == "" && !verbose {
		return func() {}, nil
	}
	obs.EnableMetrics()
	var tracer *obs.Tracer
	if f.TracePath != "" {
		file, err := os.Create(f.TracePath)
		if err != nil {
			return nil, fmt.Errorf("create trace file: %w", err)
		}
		tracer = obs.NewTracer(file)
	} else {
		tracer = obs.NewTracer(nil) // collect-only: span stats for the digest
	}
	tracer.SetSampleEvery(f.TraceSample)
	obs.SetTracer(tracer)
	if f.MetricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.MetricsHandler())
		mux.Handle("/metrics.json", obs.JSONHandler())
		note := ""
		if f.Pprof {
			MountPprof(mux)
			note = ", pprof: /debug/pprof/"
		}
		ln, err := net.Listen("tcp", f.MetricsAddr)
		if err != nil {
			return nil, fmt.Errorf("metrics listener: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%s: serving metrics on http://%s/metrics (json: /metrics.json%s)\n",
			tool, ln.Addr(), note)
		go http.Serve(ln, mux)
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			obs.SetTracer(nil)
			if err := tracer.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: closing trace: %v\n", tool, err)
			} else if f.TracePath != "" {
				fmt.Fprintf(os.Stderr, "%s: span trace written to %s\n", tool, f.TracePath)
			}
		})
	}, nil
}

// MountPprof registers the net/http/pprof handlers under /debug/pprof/ on
// mux (the -pprof flag of the CLI tools and modelerd).
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// PrintCacheStats reports how many Model calls reused a cached adaptation
// versus paid an adaptation-training run — the one shared rendering of
// adaptcache.Stats across the CLI tools.
func PrintCacheStats(w io.Writer, s adaptcache.Stats) {
	fmt.Fprintf(w, "adaptation cache:  %d hits, %d misses (adaptations trained), %d evictions, %d entries, %.1f KiB retained\n",
		s.Hits, s.Misses, s.Evictions, s.Entries, float64(s.Bytes)/1024)
}

// PrintRunSummary prints the end-of-run telemetry digest (-v): modeling and
// resilience outcomes, cache effectiveness, training volume, worker-pool
// utilization, span totals and the slowest kernels by wall time. Everything
// comes from the obs registry and the installed tracer, so it reflects
// exactly what a scrape of /metrics would have seen.
func PrintRunSummary(w io.Writer) {
	snap := obs.Default().Snapshot()
	c := snap.Counter
	fmt.Fprintln(w, "--- run telemetry ---")
	fmt.Fprintf(w, "modeling runs:     %d ok, %d failed (selected: dnn %d, regression %d)\n",
		c("extrapdnn_core_models_total"), c("extrapdnn_core_model_errors_total"),
		c(`extrapdnn_core_selected_total{modeler="dnn"}`), c(`extrapdnn_core_selected_total{modeler="regression"}`))
	fmt.Fprintf(w, "resilience:        first_try %d, retried %d, cached %d, no_adapt %d, fallback pretrained %d / regression %d\n",
		c(`extrapdnn_core_resilience_total{outcome="first_try"}`),
		c(`extrapdnn_core_resilience_total{outcome="retried"}`),
		c(`extrapdnn_core_resilience_total{outcome="cached"}`),
		c(`extrapdnn_core_resilience_total{outcome="no_adapt"}`),
		c(`extrapdnn_core_resilience_total{outcome="fallback_pretrained"}`),
		c(`extrapdnn_core_resilience_total{outcome="fallback_regression"}`))
	hits := c("extrapdnn_adaptcache_hits_total")
	misses := c("extrapdnn_adaptcache_misses_total")
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses) * 100
	}
	fmt.Fprintf(w, "adaptation cache:  %d hits / %d misses (hit rate %.1f%%), %d singleflight waits, %d evictions\n",
		hits, misses, rate,
		c("extrapdnn_adaptcache_singleflight_waits_total"), c("extrapdnn_adaptcache_evictions_total"))
	fmt.Fprintf(w, "adapt retries:     %d divergence-recovery attempts\n",
		c("extrapdnn_core_adapt_retries_total"))
	fmt.Fprintf(w, "training:          %d runs, %d epochs, %d batches, %d divergence aborts\n",
		c("extrapdnn_nn_train_runs_total"), c("extrapdnn_nn_train_epochs_total"),
		c("extrapdnn_nn_train_batches_total"), c("extrapdnn_nn_train_divergence_total"))
	fmt.Fprintf(w, "precision:         %d float64 runs, %d float32 runs\n",
		c(`extrapdnn_nn_train_precision_total{precision="float64"}`),
		c(`extrapdnn_nn_train_precision_total{precision="float32"}`))
	if regHits, regMisses := c("extrapdnn_modelregistry_hits_total"), c("extrapdnn_modelregistry_misses_total"); regHits+regMisses > 0 {
		fmt.Fprintf(w, "model registry:    %d hits (pretraining skipped), %d misses, %d stores, %d bad blobs\n",
			regHits, regMisses,
			c("extrapdnn_modelregistry_stores_total"), c("extrapdnn_modelregistry_bad_blobs_total"))
	}
	fmt.Fprintf(w, "parallel:          %d items, worker busy %v, dispatch wait %v\n",
		c("extrapdnn_parallel_items_total"),
		time.Duration(c("extrapdnn_parallel_worker_busy_ns_total")).Round(time.Millisecond),
		time.Duration(c("extrapdnn_parallel_dispatch_wait_ns_total")).Round(time.Millisecond))
	ts := obs.CurrentTraceStats()
	fmt.Fprintf(w, "spans:             %d recorded\n", ts.Spans)
	if len(ts.Slowest) > 0 {
		fmt.Fprintln(w, "slowest kernels:")
		for i, s := range ts.Slowest {
			if i >= 5 {
				break
			}
			fmt.Fprintf(w, "  %d. %-22s %v\n", i+1, s.Kernel, s.Dur.Round(time.Millisecond))
		}
	}
}
