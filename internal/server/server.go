// Package server is the warm-path modeling service behind cmd/modelerd: an
// HTTP front end over one process-wide core.Modeler whose steady state does
// zero training. The network is pretrained (or registry-loaded) once at
// startup; every request models against that network, all requests share one
// adaptation cache, and concurrent same-signature adaptations —
// arriving from different HTTP requests — coalesce through the cache's
// singleflight, so N tenants asking about the same experiment layout cost one
// retrain between them.
//
// Endpoints:
//
//	POST /v1/model    one measurement set (JSON) in, one ModelResponse out
//	POST /v1/profile  profile stream (JSONL or legacy array) in, NDJSON
//	                  result lines out, streamed with backpressure
//	GET  /healthz     liveness + drain state + reload generation + counters
//	GET  /metrics     Prometheus text (also /metrics.json)
//
// Concurrency is bounded end to end: an optional per-client fairness gate
// (token bucket keyed by X-Client-ID or remote host, 429 + Retry-After)
// meters each client before a counting semaphore caps the modeling requests
// in flight (excess queues briefly, then 503s), and each profile request
// streams through parallel.Stream with a bounded in-flight window, so a
// campaign of any size runs in O(MaxInFlight) server memory. A client
// disconnect cancels the request context and halts that request's pipeline;
// queued-but-unstarted kernels skip training entirely.
//
// The modeler is hot-swappable: Swap atomically replaces it (cmd/modelerd
// wires this to SIGHUP) while every in-flight request keeps the modeler it
// started with — a reload never changes the result of a running campaign.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"extrapdnn/internal/cliutil"
	"extrapdnn/internal/core"
	"extrapdnn/internal/faultinject"
	"extrapdnn/internal/measurement"
	"extrapdnn/internal/obs"
	"extrapdnn/internal/parallel"
	"extrapdnn/internal/profile"
)

// Defaults for the capacity knobs (see docs/SERVICE.md for sizing guidance).
const (
	// DefaultQueueTimeout bounds how long a request beyond the concurrency
	// limit waits for a modeling slot before it is rejected with 503.
	DefaultQueueTimeout = 5 * time.Second
	// DefaultMaxBodyBytes bounds request bodies (measurement sets and profile
	// streams alike); oversize requests are rejected with 413.
	DefaultMaxBodyBytes = 64 << 20
	// DefaultClientBurst is the instantaneous per-client burst admitted by the
	// fairness gate when Config.ClientRate is set.
	DefaultClientBurst = 8
	// DefaultClientQueue is the bounded per-client queue depth of the fairness
	// gate: requests early by less than this many token intervals wait for
	// their token instead of failing.
	DefaultClientQueue = 4
)

// Config configures a Server.
type Config struct {
	// Modeler is the shared adaptive modeler every request runs through. Its
	// adaptation cache is the cross-request warm path; it must be non-nil.
	Modeler *core.Modeler
	// Workers bounds the concurrently modeled kernels per /v1/profile request
	// (<= 0 means GOMAXPROCS).
	Workers int
	// MaxInFlight bounds the per-profile-request streaming window (<= 0 means
	// 2*Workers); together with the streaming decode it caps the server
	// memory per campaign request.
	MaxInFlight int
	// MaxConcurrent bounds the modeling requests (model + profile) executing
	// at once (<= 0 means 2*GOMAXPROCS). /healthz and /metrics are exempt.
	MaxConcurrent int
	// QueueTimeout bounds the wait for a modeling slot (<= 0 means
	// DefaultQueueTimeout).
	QueueTimeout time.Duration
	// MaxBodyBytes bounds request bodies (<= 0 means DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// NoSanitize rejects measurement sets with bad points instead of
	// repairing them, matching the CLI flag of the same name.
	NoSanitize bool
	// ClientRate enables the per-client fairness gate: sustained modeling
	// requests per second each client (X-Client-ID header, else remote host)
	// may issue before being throttled with 429 + Retry-After. <= 0 disables
	// the gate (the PR-8 behavior: shared limiter only).
	ClientRate float64
	// ClientBurst is the instantaneous burst each client may issue on top of
	// the sustained rate (<= 0 means DefaultClientBurst).
	ClientBurst int
	// ClientQueue bounds the per-client queue: a request early by at most
	// this many token intervals waits for its token instead of 429ing
	// (< 0 means 0 — reject immediately; 0 means DefaultClientQueue).
	ClientQueue int
	// AccessLog, when non-nil, receives one JSONL record per request to a
	// modeling endpoint (accepted or rejected) and enables request IDs:
	// echoed as X-Request-ID, in error bodies, and on trailer lines. Nil
	// disables access logging with zero request-path overhead.
	AccessLog *AccessLog
}

// Server is the HTTP modeling service. Create with New, mount Handler on an
// http.Server, and call Drain when shutdown begins so health checks steer new
// traffic away while in-flight requests complete.
type Server struct {
	cfg       Config
	limiter   *limiter
	fair      *fairness
	mux       *http.ServeMux
	start     time.Time
	accessLog *AccessLog
	reqBase   uint64 // random per-process request-ID prefix

	reqSeq       atomic.Uint64
	inflightMu   sync.Mutex
	inflightReqs map[uint64]*reqInfo // /statusz's live request table

	// modeler is the current adaptive modeler. Requests load it exactly once
	// at admission and keep that reference for their whole lifetime, so Swap
	// (hot reload) never changes the network under a running campaign.
	modeler    atomic.Pointer[core.Modeler]
	generation atomic.Uint64

	draining   atomic.Bool
	requests   atomic.Uint64
	kernels    atomic.Uint64
	inFlight   atomic.Int64
	workers    int
	maxBody    int64
	readOpts   profile.ReadOptions
	measureCfg measurement.ReadConfig
}

// New builds a Server over a shared modeler.
func New(cfg Config) (*Server, error) {
	if cfg.Modeler == nil {
		return nil, fmt.Errorf("server: Config.Modeler is required")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxConc := cfg.MaxConcurrent
	if maxConc <= 0 {
		maxConc = 2 * runtime.GOMAXPROCS(0)
	}
	queueTimeout := cfg.QueueTimeout
	if queueTimeout <= 0 {
		queueTimeout = DefaultQueueTimeout
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	clientBurst := cfg.ClientBurst
	if clientBurst <= 0 {
		clientBurst = DefaultClientBurst
	}
	clientQueue := cfg.ClientQueue
	if clientQueue == 0 {
		clientQueue = DefaultClientQueue
	} else if clientQueue < 0 {
		clientQueue = 0
	}
	s := &Server{
		cfg:          cfg,
		limiter:      newLimiter(maxConc, queueTimeout),
		fair:         newFairness(cfg.ClientRate, clientBurst, clientQueue),
		mux:          http.NewServeMux(),
		start:        time.Now(),
		accessLog:    cfg.AccessLog,
		reqBase:      randomReqBase(),
		inflightReqs: make(map[uint64]*reqInfo),
		workers:      workers,
		maxBody:      maxBody,
		readOpts:     profile.ReadOptions{Read: measurement.ReadConfig{NoSanitize: cfg.NoSanitize}},
		measureCfg:   measurement.ReadConfig{NoSanitize: cfg.NoSanitize},
	}
	s.modeler.Store(cfg.Modeler)
	s.mux.HandleFunc("/v1/model", s.protect("model", s.handleModel))
	s.mux.HandleFunc("/v1/profile", s.protect("profile", s.handleProfile))
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	s.mux.Handle("/metrics", obs.MetricsHandler())
	s.mux.Handle("/metrics.json", obs.JSONHandler())
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Swap atomically replaces the modeler (hot reload: cmd/modelerd calls it on
// SIGHUP after rebuilding the modeler from the registry). Requests admitted
// before the swap keep the old modeler — and its adaptation cache — until
// they complete, so an in-flight campaign finishes on the network it started
// with while every request admitted after the swap models on the new one.
// It returns the new reload generation (0 = the startup modeler).
func (s *Server) Swap(m *core.Modeler) uint64 {
	s.modeler.Store(m)
	gen := s.generation.Add(1)
	obsReloads.Inc()
	obsReloadGen.Set(float64(gen))
	return gen
}

// currentModeler pins the modeler for one request.
func (s *Server) currentModeler() *core.Modeler { return s.modeler.Load() }

// Drain flips the server into draining mode: /healthz starts reporting 503
// and new modeling requests are rejected, while requests already executing
// run to completion (http.Server.Shutdown provides the actual wait).
func (s *Server) Drain() { s.draining.Store(true) }

// InFlight returns the modeling requests currently executing.
func (s *Server) InFlight() int64 { return s.inFlight.Load() }

// Requests returns the modeling requests accepted since startup.
func (s *Server) Requests() uint64 { return s.requests.Load() }

// Kernels returns the profile entries modeled since startup (single-set
// /v1/model requests count one kernel each).
func (s *Server) Kernels() uint64 { return s.kernels.Load() }

// writeError emits the uniform JSON error body, echoing the request ID when
// the access log assigned one (so a client error message greps straight to
// the server's access-log line).
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	resp := ErrorResponse{Error: fmt.Sprintf(format, args...)}
	if ri := reqInfoOf(w); ri != nil {
		resp.RequestID = ri.id
	}
	json.NewEncoder(w).Encode(resp)
}

// writeThrottled emits the fairness gate's 429 with a Retry-After that names
// the moment the client's next token accrues.
func writeThrottled(w http.ResponseWriter, retryAfter time.Duration) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retryAfter)))
	w.WriteHeader(http.StatusTooManyRequests)
	resp := ErrorResponse{Error: "client over its request rate, honor Retry-After"}
	if ri := reqInfoOf(w); ri != nil {
		resp.RequestID = ri.id
	}
	json.NewEncoder(w).Encode(resp)
}

// admit runs the shared front gate of the modeling endpoints: method check,
// drain check, the per-client fairness gate, and the shared concurrency
// limiter. It returns false after writing the rejection response; on true the
// caller owns one slot and must call done().
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (done func(), ok bool) {
	ri := reqInfoOf(w)
	if r.Method != http.MethodPost {
		ri.setReason("method_not_allowed")
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return nil, false
	}
	if s.draining.Load() {
		obsRejectedDraining.Inc()
		ri.setReason("draining")
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return nil, false
	}
	// Fairness first: one flooding client must be turned away before it can
	// occupy shared limiter slots or queue positions.
	if s.fair != nil {
		client := clientID(r)
		wait, retryAfter, admitted := s.fair.reserve(client, time.Now())
		if !admitted {
			obsRejectedThrottled.Inc()
			ri.setReason("throttled")
			writeThrottled(w, retryAfter)
			return nil, false
		}
		if wait > 0 {
			obsThrottleWaits.Inc()
			if ri != nil {
				ri.throttleWait = wait
			}
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-r.Context().Done():
				t.Stop()
				s.fair.unwait(client)
				ri.setReason("client_gone")
				return nil, false // client vanished while queued
			}
			t.Stop()
			s.fair.unwait(client)
		}
	}
	s.inFlight.Add(1)
	obsInFlight.Add(1)
	release := func() {
		s.inFlight.Add(-1)
		obsInFlight.Add(-1)
	}
	queued, err := s.limiter.acquire(r.Context())
	if ri != nil {
		ri.queueWait = queued
	}
	if err != nil {
		release()
		if errors.Is(err, errBusy) {
			obsRejectedBusy.Inc()
			ri.setReason("busy")
			writeError(w, http.StatusServiceUnavailable, "all modeling slots busy, retry later")
		} else {
			// A context error means the client vanished while queued; there
			// is nobody left to answer.
			ri.setReason("client_gone")
		}
		return nil, false
	}
	s.requests.Add(1)
	return func() {
		s.limiter.release()
		release()
	}, true
}

// requestSpan opens the server.request span for a modeling request, joining
// the client's trace when the request carries a traceparent header
// (docs/OBSERVABILITY.md). The header is only looked at when a tracer is
// reachable — with tracing off this is two context probes and one atomic
// load, no header parse, no allocation. The span carries the per-client
// fairness key, the admission-wait breakdown, and the request ID, and its
// trace ID is published to the access log and /statusz.
func (s *Server) requestSpan(w http.ResponseWriter, r *http.Request, endpoint string) (context.Context, *obs.Span, *reqInfo) {
	ctx := r.Context()
	ri := reqInfoOf(w)
	if obs.ActiveTracer(ctx) == nil {
		return ctx, nil, ri
	}
	ctx = obs.AdoptTraceParent(ctx, r.Header.Get(obs.TraceParentHeader))
	ctx, span := obs.StartSpan(ctx, "server.request")
	if span == nil {
		return ctx, nil, ri
	}
	span.SetString("endpoint", endpoint)
	if ri != nil {
		if ri.client != "" {
			span.SetString("client", ri.client)
		}
		if ri.id != "" {
			span.SetString("request_id", ri.id)
		}
		if ri.throttleWait > 0 {
			span.SetFloat("throttle_wait_ms", ms(ri.throttleWait))
		}
		if ri.queueWait > 0 {
			span.SetFloat("queue_wait_ms", ms(ri.queueWait))
		}
		ri.traceID.Store(span.TraceID())
	}
	return ctx, span, ri
}

// handleModel serves POST /v1/model: one measurement set in, one report out.
// The warm path — an equal-signature request after the first — performs zero
// training: the adapted network comes straight from the shared cache.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	done, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer done()
	modeler := s.currentModeler() // pinned: a hot reload never swaps mid-request
	obsReqModel.Inc()
	start := time.Now()
	ctx, span, ri := s.requestSpan(w, r, "model")
	defer span.End()

	set, err := measurement.ReadJSONWith(http.MaxBytesReader(w, r.Body, s.maxBody), s.measureCfg)
	if err != nil {
		s.rejectBody(w, span, "model", err)
		return
	}
	rep, err := modeler.ModelCtx(ctx, set)
	if err != nil {
		if ctx.Err() != nil {
			obsDisconnects.Inc()
			ri.setReason("client_gone")
			return // client gone; nobody to answer
		}
		obsErrModel.Inc()
		ri.setReason("model_failed")
		span.SetString("error", err.Error())
		writeError(w, http.StatusUnprocessableEntity, "modeling failed: %v", err)
		return
	}
	s.kernels.Add(1)
	ri.countKernel()
	obsKernels.Inc()
	obsModelSeconds.Observe(time.Since(start).Seconds())
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(NewModelResponse(rep))
}

// rejectBody classifies a request-decode failure into 413 (body cap) or 400
// (malformed or invalid input) and counts it.
func (s *Server) rejectBody(w http.ResponseWriter, span *obs.Span, endpoint string, err error) {
	var tooLarge *http.MaxBytesError
	status := http.StatusBadRequest
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
		obsRejectedOversize.Inc()
		reqInfoOf(w).setReason("oversize")
	} else {
		obsRejectedBadRequest.Inc()
		reqInfoOf(w).setReason("bad_request")
	}
	if endpoint == "model" {
		obsErrModel.Inc()
	} else {
		obsErrProfile.Inc()
	}
	span.SetString("error", err.Error())
	writeError(w, status, "%v", err)
}

// errEmitPanic marks a panic recovered inside the result-emission path of a
// streaming campaign. It halts the pipeline cleanly (workers drain, nothing
// leaks) and the handler converts it into the kernel-less trailer line, so
// the client sees a fatal protocol error instead of a torn stream.
var errEmitPanic = errors.New("server: panic in result emission")

// handleProfile serves POST /v1/profile: a profile stream (JSONL or the
// legacy array format) in, one NDJSON result line per kernel out, in input
// order. Decoding, modeling and emission are pipelined through the shared
// campaign loop (core.(*Modeler).ModelStream), so the response starts
// flowing while later entries are still decoding, at O(MaxInFlight) memory
// per request. All entries share the process-wide adaptation cache, exactly
// like a local campaign run.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	done, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer done()
	modeler := s.currentModeler() // pinned: the whole campaign runs on one network
	obsReqProfile.Inc()
	start := time.Now()
	ctx, span, ri := s.requestSpan(w, r, "profile")
	defer span.End()

	sc, err := profile.NewScannerWith(http.MaxBytesReader(w, r.Body, s.maxBody), s.readOpts)
	if err != nil {
		s.rejectBody(w, span, "profile", err)
		return
	}

	// The pipeline keeps reading the request body while result lines flow
	// out; without full duplex, net/http closes the body at the first
	// response write and every later entry would fail to decode. Best-effort:
	// HTTP/2 is duplex natively and test recorders don't read-after-write.
	_ = http.NewResponseController(w).EnableFullDuplex()

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	streamErr := modeler.ModelStream(ctx, sc,
		parallel.StreamConfig{Workers: s.workers, MaxInFlight: s.MaxInFlightBound(), Ordered: true},
		func(_ int, e profile.Entry, rep core.Report, entryErr error) (emitErr error) {
			// A panic below this line (an encoding bug, an injected fault)
			// must not tear the stream or leak pipeline goroutines: it is
			// converted into an error that halts the pipeline cleanly and
			// becomes the trailer line in the switch below.
			defer func() {
				if p := recover(); p != nil {
					obsPanics.Inc()
					emitErr = fmt.Errorf("%w: %v", errEmitPanic, p)
				}
			}()
			if faultinject.Enabled {
				faultinject.Fire(faultinject.SiteServerEmit, e.Kernel)
			}
			if err := enc.Encode(cliutil.NewResultLine(e, rep, entryErr)); err != nil {
				return err // client write failed: halt the pipeline
			}
			if flusher != nil {
				flusher.Flush() // each line is delivered as it completes
			}
			s.kernels.Add(1)
			ri.countKernel()
			obsKernels.Inc()
			return nil
		})

	switch {
	case streamErr == nil:
	case ctx.Err() != nil:
		// Client disconnect (or server shutdown cutting the base context):
		// the pipeline drained, queued kernels skipped training, and the
		// connection is dead — nothing more to write.
		obsDisconnects.Inc()
		obsErrProfile.Inc()
		ri.setReason("disconnect")
		return
	case errors.Is(streamErr, errEmitPanic):
		// Recovered emission panic: the stream is intact up to the last good
		// line; the failure travels as the fatal kernel-less trailer.
		obsErrProfile.Inc()
		ri.setReason("emit_panic")
		span.SetString("error", streamErr.Error())
		enc.Encode(trailerLine(ri, streamErr))
		if flusher != nil {
			flusher.Flush()
		}
		return
	case isProfileDecodeErr(streamErr):
		// The source failed mid-stream (malformed entry, duplicate kernel).
		// The response is already 200 and N clean lines long, so the error
		// travels as a kernel-less trailer line clients treat as fatal.
		obsErrProfile.Inc()
		ri.setReason("stream_error")
		span.SetString("error", streamErr.Error())
		enc.Encode(trailerLine(ri, streamErr))
		return
	default:
		// Emit-side write error: the connection broke between lines.
		obsDisconnects.Inc()
		obsErrProfile.Inc()
		ri.setReason("disconnect")
		return
	}
	obsProfileSeconds.Observe(time.Since(start).Seconds())
}

// MaxInFlightBound resolves the per-request streaming window.
func (s *Server) MaxInFlightBound() int {
	if s.cfg.MaxInFlight > 0 {
		return s.cfg.MaxInFlight
	}
	return 2 * s.workers
}

// isProfileDecodeErr reports whether a Stream error came from the profile
// source rather than the emit side: source errors are produced by the scanner
// and are the only non-context, non-emit failures the pipeline returns.
func isProfileDecodeErr(err error) bool {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return true
	}
	// Scanner errors are fmt-wrapped with the "profile:" prefix; emit errors
	// are network write errors. Distinguishing them structurally would
	// require threading a marker through Stream, so the scanner's stable
	// prefix is the contract here (profile package tests pin it).
	return strings.HasPrefix(err.Error(), "profile:")
}

// trailerLine builds the kernel-less trailer for a mid-stream failure,
// carrying the request ID (when the access log assigned one) so the client's
// error message correlates with the server's access-log line. Trailer lines
// never reach results files, so the extra field cannot break checkpoint
// byte-identity.
func trailerLine(ri *reqInfo, streamErr error) cliutil.ResultLine {
	line := cliutil.ResultLine{Error: streamErr.Error()}
	if ri != nil {
		line.RequestID = ri.id
	}
	return line
}

// handleHealth serves GET /healthz: 200 while serving, 503 once draining.
// The body is the readiness contract orchestrators and the chaos suite rely
// on to tell a draining daemon from a crashed one: status, the reload
// generation (how many Swap/SIGHUP reloads have happened), and the in-flight
// request count.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	cache := s.currentModeler().CacheStats()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(HealthResponse{
		Status:           status,
		ReloadGeneration: s.generation.Load(),
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Requests:         s.requests.Load(),
		Kernels:          s.kernels.Load(),
		InFlight:         s.inFlight.Load(),
		CacheHits:        cache.Hits,
		CacheMisses:      cache.Misses,
	})
}
