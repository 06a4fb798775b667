// Command modelerd is the long-lived modeling service: it pays the cold-start
// cost — process spin-up and network pretraining (or a registry load) — once,
// then serves modeling requests from a warm process whose steady state
// performs zero training.
//
//	modelerd -addr :8080
//	modelerd -addr :8080 -model-dir /var/lib/extrapdnn/models -workers 8
//	modelerd -addr :8080 -net network.bin -max-concurrent 16
//
// Endpoints (see docs/SERVICE.md for the full API spec):
//
//	POST /v1/model     measurement set (JSON) → model report (JSON)
//	POST /v1/profile   profile stream (JSONL or legacy array) → NDJSON
//	                   result lines, streamed as kernels complete
//	GET  /healthz      liveness, drain state, serving counters
//	GET  /statusz      live introspection: in-flight requests with trace IDs,
//	                   occupancy, cache and tracing state (text or ?format=json)
//	GET  /metrics      Prometheus text exposition (also /metrics.json)
//
// All requests share one process-wide adaptation cache: kernels with equal
// task signatures — across requests and tenants — pay a single domain
// adaptation, and concurrent misses on one signature coalesce into one
// training run. SIGINT/SIGTERM starts a graceful drain: /healthz flips to
// 503, new modeling requests are rejected, and in-flight requests complete
// within -drain-timeout.
//
// SIGHUP hot-reloads the pretrained network (re-running the same -net /
// -model-dir / pretrain resolution as startup) without dropping a single
// request: in-flight campaigns finish on the network they started with, new
// requests use the new one, and /healthz's reload_generation counts the
// swaps. With -client-rate the daemon also rate-limits each client (keyed by
// X-Client-ID, falling back to the remote address) in front of the shared
// concurrency limiter, so one flooding tenant gets 429 + Retry-After instead
// of starving everyone else.
//
// Observability (docs/OBSERVABILITY.md): -trace writes a JSONL span trace; a
// traced client's traceparent header joins its spans with the daemon's, so a
// faulted campaign reconstructs as one trace across both files (cmd/traceview
// merges them). -trace-sample keeps one trace in N, deterministically by
// trace ID. -access-log appends one JSONL line per modeling request —
// accepted or rejected — and enables request IDs, echoed as X-Request-ID, in
// error bodies, and on stream-failure trailer lines. Both sinks are flushed
// on SIGHUP and closed on drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"extrapdnn/internal/cliutil"
	"extrapdnn/internal/obs"
	"extrapdnn/internal/server"
)

func main() {
	var (
		addr          = flag.String("addr", "localhost:8080", "listen address of the modeling service")
		maxConcurrent = flag.Int("max-concurrent", 0, "concurrent modeling requests (0 = 2*GOMAXPROCS); excess queues, then 503s")
		queueTimeout  = flag.Duration("queue-timeout", server.DefaultQueueTimeout, "how long a request waits for a modeling slot before 503")
		maxBody       = flag.Int64("max-body", server.DefaultMaxBodyBytes, "request body limit in bytes; larger requests get 413")
		maxInFlight   = flag.Int("max-in-flight", 0, "per-profile-request streaming window (0 = 2*workers)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long a shutdown signal waits for in-flight requests")
		pprofFlag     = flag.Bool("pprof", false, "also serve net/http/pprof under /debug/pprof/")
		tracePath     = flag.String("trace", "", "write a JSONL span trace of the daemon's requests to this file (empty = off)")
		traceSample   = flag.Int("trace-sample", 1, "with -trace: keep one trace in every N (deterministic by trace ID; 1 = keep all)")
		accessLogPath = flag.String("access-log", "", "append one JSONL access-log line per modeling request to this file and enable request IDs (empty = off)")
		regOnly       = flag.Bool("regression-only", false, "serve only the classic regression modeler (no network, no training)")
		clientRate    = flag.Float64("client-rate", 0, "per-client fairness: sustained requests/second each client may issue (0 = no per-client limit)")
		clientBurst   = flag.Int("client-burst", 0, "per-client fairness: burst size admitted above the sustained rate (0 = default)")
		clientQueue   = flag.Int("client-queue", 0, "per-client fairness: requests a client may have waiting for its rate window before 429 (0 = default, negative = reject immediately)")
	)
	mf := cliutil.RegisterModelerFlags()
	flag.Parse()

	// The daemon always collects metrics — /metrics is part of its API.
	obs.EnableMetrics()
	var tracer *obs.Tracer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(fmt.Errorf("create trace file: %w", err))
		}
		tracer = obs.NewTracer(f)
		tracer.SetSampleEvery(*traceSample)
		obs.SetTracer(tracer)
	}
	var accessLog *server.AccessLog
	if *accessLogPath != "" {
		// Append, not truncate: an access log is forensic history; restarts
		// must not erase it (the random request-ID prefix keeps IDs unique
		// across restarts within one file).
		f, err := os.OpenFile(*accessLogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(fmt.Errorf("open access log: %w", err))
		}
		accessLog = server.NewAccessLog(f)
	}

	// Cold start, paid exactly once: load (or pretrain and, with -model-dir,
	// store) the classification network, then build the shared modeler whose
	// adaptation cache is the cross-request warm path.
	start := time.Now()
	modeler, err := mf.NewModeler(context.Background(), *regOnly, true)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "modelerd: modeler ready in %v\n", time.Since(start).Round(time.Millisecond))

	srv, err := server.New(server.Config{
		Modeler:       modeler,
		Workers:       mf.Workers,
		MaxInFlight:   *maxInFlight,
		MaxConcurrent: *maxConcurrent,
		QueueTimeout:  *queueTimeout,
		MaxBodyBytes:  *maxBody,
		NoSanitize:    mf.NoSanitize,
		ClientRate:    *clientRate,
		ClientBurst:   *clientBurst,
		ClientQueue:   *clientQueue,
		AccessLog:     accessLog,
	})
	if err != nil {
		fatal(err)
	}

	// SIGHUP hot-reload: rebuild the modeler with the same flag resolution as
	// startup and swap it in atomically. A failed rebuild keeps the current
	// modeler serving — a reload can never take the daemon down.
	reload := make(chan os.Signal, 1)
	signal.Notify(reload, syscall.SIGHUP)
	go func() {
		for range reload {
			start := time.Now()
			m, err := mf.NewModeler(context.Background(), *regOnly, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "modelerd: reload failed, keeping current modeler: %v\n", err)
				continue
			}
			gen := srv.Swap(m)
			fmt.Fprintf(os.Stderr, "modelerd: modeler reloaded in %v (generation %d)\n",
				time.Since(start).Round(time.Millisecond), gen)
			// A reload is a natural flush boundary for the diagnostic sinks:
			// everything before the swap is durable on disk before the new
			// generation starts writing.
			if err := tracer.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "modelerd: flushing trace: %v\n", err)
			}
			if err := accessLog.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "modelerd: flushing access log: %v\n", err)
			}
		}
	}()

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if *pprofFlag {
		cliutil.MountPprof(mux)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: mux}
	fmt.Fprintf(os.Stderr, "modelerd: serving on http://%s (model: /v1/model, profile: /v1/profile, health: /healthz, status: /statusz, metrics: /metrics)\n", ln.Addr())

	// Serve until a shutdown signal, then drain: health checks flip to 503
	// immediately, new modeling work is rejected, and in-flight requests get
	// -drain-timeout to finish before the listener is torn down.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fatal(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintf(os.Stderr, "modelerd: draining (%d in flight, timeout %v)\n", srv.InFlight(), *drainTimeout)
	srv.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "modelerd: drain incomplete: %v\n", err)
		closeAccessLog(accessLog, *accessLogPath)
		closeTrace(tracer, *tracePath)
		os.Exit(cliutil.ExitTimeout)
	}
	fmt.Fprintf(os.Stderr, "modelerd: drained cleanly after %d requests (%d kernels)\n", srv.Requests(), srv.Kernels())
	closeAccessLog(accessLog, *accessLogPath)
	closeTrace(tracer, *tracePath)
}

// closeAccessLog flushes and closes the access log, if one was set up.
func closeAccessLog(l *server.AccessLog, path string) {
	if l == nil {
		return
	}
	if err := l.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "modelerd: closing access log: %v\n", err)
	} else {
		fmt.Fprintf(os.Stderr, "modelerd: access log written to %s (%d lines)\n", path, l.Lines())
	}
}

// closeTrace uninstalls and flushes the tracer, if one was set up.
func closeTrace(tracer *obs.Tracer, path string) {
	if tracer == nil {
		return
	}
	obs.SetTracer(nil)
	if err := tracer.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "modelerd: closing trace: %v\n", err)
	} else {
		fmt.Fprintf(os.Stderr, "modelerd: span trace written to %s\n", path)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "modelerd:", err)
	os.Exit(cliutil.ExitCode(err))
}
