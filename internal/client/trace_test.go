package client

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"extrapdnn/internal/chaosproxy"
	"extrapdnn/internal/cliutil"
	"extrapdnn/internal/core"
	"extrapdnn/internal/obs"
	"extrapdnn/internal/profile"
	"extrapdnn/internal/server"
	"extrapdnn/internal/tracemerge"
)

// Cross-process trace propagation tests: the client injects a traceparent
// header, the daemon adopts it, and the two JSONL trace files — written by
// two different tracers, exactly like two different processes — reassemble
// into one span tree via tracemerge.

// tracedEnv is a traced daemon, the client dialing it, and the JSONL
// buffers each side's tracer records into.
type tracedEnv struct {
	cl                   *Client
	px                   *chaosproxy.Proxy
	ts                   *httptest.Server
	clientTr, serverTr   *obs.Tracer
	clientBuf, serverBuf *bytes.Buffer
}

// tracedDaemon stands up a regression daemon whose requests record into
// serverBuf through a dedicated tracer, installed via the listener's
// BaseContext — the in-process stand-in for two processes each having their
// own global tracer. When proxied is true the client dials through a chaos
// proxy (returned for fault scripting) with keep-alives off, mirroring
// chaosDaemon.
func tracedDaemon(t *testing.T, proxied bool) *tracedEnv {
	t.Helper()
	e := &tracedEnv{clientBuf: &bytes.Buffer{}, serverBuf: &bytes.Buffer{}}
	e.clientTr, e.serverTr = obs.NewTracer(e.clientBuf), obs.NewTracer(e.serverBuf)

	m, err := core.New(nil, core.Config{DisableDNN: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Modeler: m, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.ts = httptest.NewUnstartedServer(srv.Handler())
	e.ts.Config.BaseContext = func(net.Listener) context.Context {
		return obs.ContextWithTracer(context.Background(), e.serverTr)
	}
	e.ts.Start()
	t.Cleanup(e.ts.Close)

	base := e.ts.URL
	if proxied {
		u, err := url.Parse(e.ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		e.px, err = chaosproxy.New(u.Host)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.px.Close)
		base = e.px.URL()
	}
	tr := &http.Transport{DisableKeepAlives: true}
	t.Cleanup(tr.CloseIdleConnections)
	e.cl = New(base)
	e.cl.HTTPClient = &http.Client{Transport: tr}
	e.cl.Retry = fastRetry()
	return e
}

// mergedTraces closes the daemon, flushes both tracers and merges the two
// JSONL buffers the way cmd/traceview does. Closing first blocks until every
// handler has returned, so each deferred server.request span is written
// before the server buffer is read.
func (e *tracedEnv) mergedTraces(t *testing.T) []tracemerge.Trace {
	t.Helper()
	e.ts.Close()
	if err := e.clientTr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.serverTr.Flush(); err != nil {
		t.Fatal(err)
	}
	cs, err := tracemerge.Read(bytes.NewReader(e.clientBuf.Bytes()), "client.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := tracemerge.Read(bytes.NewReader(e.serverBuf.Bytes()), "server.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) == 0 || len(ss) == 0 {
		t.Fatalf("expected spans on both sides, got client=%d server=%d", len(cs), len(ss))
	}
	return tracemerge.Merge(cs, ss)
}

// spansNamed filters one trace's spans by name.
func spansNamed(tr tracemerge.Trace, name string) []tracemerge.Span {
	var out []tracemerge.Span
	for _, s := range tr.Spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// TestTracePropagationModelJoins checks the plain (no-fault) contract: a
// traced /v1/model call yields client and server spans under one trace ID,
// with the server.request span parented to the client's attempt span.
func TestTracePropagationModelJoins(t *testing.T) {
	e := tracedDaemon(t, false)

	ctx := obs.ContextWithTracer(context.Background(), e.clientTr)
	if _, err := e.cl.Model(ctx, testSet(1, func(x float64) float64 { return 5 + 2*x })); err != nil {
		t.Fatal(err)
	}

	traces := e.mergedTraces(t)
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1 (client and server joined)", len(traces))
	}
	tr := traces[0]

	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name != "client.model" {
		t.Fatalf("roots = %+v, want the single client.model root", roots)
	}
	attempts := spansNamed(tr, "client.request")
	if len(attempts) != 1 || attempts[0].Parent != roots[0].Span {
		t.Fatalf("client.request spans: %+v", attempts)
	}
	servers := spansNamed(tr, "server.request")
	if len(servers) != 1 {
		t.Fatalf("server.request spans: %+v", servers)
	}
	if servers[0].Parent != attempts[0].Span {
		t.Fatalf("server.request parent %016x, want the client attempt span %016x",
			servers[0].Parent, attempts[0].Span)
	}
	if servers[0].Attr("endpoint") != "model" {
		t.Fatalf("server.request attrs: %+v", servers[0].Attrs)
	}
}

// TestChaosResetResumeSingleTrace is the acceptance scenario: a chaos-faulted
// streaming campaign — connection RST mid-body, client reconnects and resumes
// — produces client- and server-side span records that share one trace ID,
// with the resumed stream attempt parented to the campaign root and linked to
// the attempt it resumed from, and every server.request a child of the
// attempt that carried it.
func TestChaosResetResumeSingleTrace(t *testing.T) {
	e := tracedDaemon(t, true)
	e.px.Enqueue(chaosproxy.Fault{Kind: chaosproxy.KindReset, AfterPattern: `"kern3"`})

	ctx := obs.ContextWithTracer(context.Background(), e.clientTr)
	var lines []cliutil.ResultLine
	n, err := e.cl.StreamProfile(ctx, "app", []string{"p"}, profile.Entries(testEntries(6)),
		func(l cliutil.ResultLine) error {
			lines = append(lines, l)
			return nil
		})
	if err != nil || n != 6 {
		t.Fatalf("campaign through a reset: emitted=%d err=%v", n, err)
	}
	if e.px.Connections() != 2 {
		t.Fatalf("%d connections, want 2 (original + resume)", e.px.Connections())
	}

	traces := e.mergedTraces(t)
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want exactly 1 — the whole faulted campaign is one trace", len(traces))
	}
	tr := traces[0]

	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name != "client.profile" {
		t.Fatalf("roots = %+v, want the single client.profile campaign root", roots)
	}
	root := roots[0]

	attempts := spansNamed(tr, "client.stream")
	if len(attempts) != 2 {
		t.Fatalf("client.stream attempts = %d, want 2 (original + resume)", len(attempts))
	}
	first, second := attempts[0], attempts[1]
	if first.Attr("attempt") != "1" || second.Attr("attempt") != "2" {
		t.Fatalf("attempt attrs: %q, %q", first.Attr("attempt"), second.Attr("attempt"))
	}
	// Both attempts hang off the campaign root — the resumed span is parented
	// to the original request's root span...
	if first.Parent != root.Span || second.Parent != root.Span {
		t.Fatalf("attempt parents %016x/%016x, want the root %016x", first.Parent, second.Parent, root.Span)
	}
	// ...and carries resume=true plus an explicit link back to the attempt it
	// resumed from.
	if first.Attr("resume") != "" {
		t.Fatalf("first attempt marked as a resume: %+v", first.Attrs)
	}
	if second.Attr("resume") != "true" {
		t.Fatalf("resumed attempt missing resume=true: %+v", second.Attrs)
	}
	linked := false
	for _, l := range second.Links {
		if l.Trace == tr.ID && l.Span == first.Span {
			linked = true
		}
	}
	if !linked {
		t.Fatalf("resumed attempt links %+v, want a link to the original attempt %016x", second.Links, first.Span)
	}

	// Server side: both HTTP requests joined the client's trace, each under
	// the attempt span that carried it.
	servers := spansNamed(tr, "server.request")
	if len(servers) != 2 {
		t.Fatalf("server.request spans = %d, want 2 (one per connection)", len(servers))
	}
	attemptSpans := map[uint64]bool{first.Span: true, second.Span: true}
	for _, s := range servers {
		if !attemptSpans[s.Parent] {
			t.Fatalf("server.request %016x parented to %016x, not a client attempt span", s.Span, s.Parent)
		}
		if s.Source != "server.jsonl" {
			t.Fatalf("server.request from %q", s.Source)
		}
	}

	// Every modeled kernel appears as a profile.entry span in the same trace.
	entries := spansNamed(tr, "profile.entry")
	kernels := map[string]bool{}
	for _, sp := range entries {
		kernels[sp.Attr(obs.KernelAttr)] = true
	}
	for _, l := range lines {
		if !kernels[l.Kernel] {
			t.Fatalf("kernel %s emitted but has no profile.entry span (got %v)", l.Kernel, kernels)
		}
	}
}

// TestTraceDisabledNoHeader checks the off path: without a tracer the client
// sends no traceparent header at all.
func TestTraceDisabledNoHeader(t *testing.T) {
	var sawHeader bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(obs.TraceParentHeader) != "" {
			sawHeader = true
		}
		http.Error(w, "nope", http.StatusBadRequest)
	}))
	t.Cleanup(ts.Close)

	cl := New(ts.URL)
	cl.Retry = RetryPolicy{MaxAttempts: -1}
	cl.Model(context.Background(), testSet(1, func(x float64) float64 { return x }))
	if sawHeader {
		t.Fatal("traceparent header sent with tracing disabled")
	}
}
