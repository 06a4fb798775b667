package obs_test

// Contention tests for the obs package, exercised through the same
// parallel.MapErrCtx worker pools the modeling pipeline uses (an external test
// package, so the obs → parallel dependency direction stays one-way). Run
// with -race: scripts/check.sh includes this package in its race pass.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"extrapdnn/internal/obs"
	"extrapdnn/internal/parallel"
)

func TestMetricContentionFromWorkerPool(t *testing.T) {
	obs.EnableMetrics()
	t.Cleanup(obs.DisableMetrics)
	c := obs.NewCounter("test_race_counter_total", "")
	g := obs.NewGauge("test_race_gauge", "")
	h := obs.NewHistogram("test_race_hist", "", obs.ExpBuckets(1, 2, 8))
	r := obs.NewRing("test_race_ring", "", 64)

	const n = 4000
	_, errs := parallel.MapErrCtx(context.Background(), n, 16, func(i int) (struct{}, error) {
		c.Inc()
		g.Add(1)
		h.Observe(float64(i % 32))
		r.Push(float64(i))
		return struct{}{}, nil
	})
	if errs != nil {
		t.Fatalf("worker errors: %v", errors.Join(errs...))
	}
	if got := c.Value(); got != n {
		t.Fatalf("counter = %d, want %d (lost updates under contention)", got, n)
	}
	if got := g.Value(); got != n {
		t.Fatalf("gauge = %g, want %d (lost CAS updates)", got, n)
	}
	if got := h.Count(); got != n {
		t.Fatalf("histogram count = %d, want %d", got, n)
	}
	var wantSum float64
	for i := 0; i < n; i++ {
		wantSum += float64(i % 32)
	}
	if got := h.Sum(); got != wantSum {
		t.Fatalf("histogram sum = %g, want %g", got, wantSum)
	}
	if _, total := r.Snapshot(); total != n {
		t.Fatalf("ring total = %d, want %d", total, n)
	}
}

func TestSpanContentionFromWorkerPool(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	prev := obs.SetTracer(tr)
	t.Cleanup(func() { obs.SetTracer(prev) })

	ctx, root := obs.StartSpan(context.Background(), "root")
	const n = 512
	_, errs := parallel.MapErrCtx(ctx, n, 16, func(i int) (struct{}, error) {
		childCtx, s := obs.StartSpan(ctx, "work")
		s.SetInt("i", int64(i))
		_, inner := obs.StartSpan(childCtx, "inner")
		inner.End()
		s.End()
		return struct{}{}, nil
	})
	if errs != nil {
		t.Fatalf("worker errors: %v", errors.Join(errs...))
	}
	root.End()
	obs.SetTracer(prev)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	type rec struct {
		Trace  uint64 `json:"trace"`
		Span   uint64 `json:"span"`
		Parent uint64 `json:"parent"`
		Name   string `json:"name"`
	}
	byID := map[uint64]rec{}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for _, line := range lines {
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("interleaved writers corrupted the JSONL sink: %q: %v", line, err)
		}
		byID[r.Span] = r
	}
	if want := 1 + 2*n; len(lines) != want {
		t.Fatalf("got %d records, want %d", len(lines), want)
	}
	var rootID uint64
	for _, r := range byID {
		if r.Name == "root" {
			rootID = r.Span
		}
	}
	var workers, inners int
	for _, r := range byID {
		switch r.Name {
		case "work":
			workers++
			if r.Parent != rootID {
				t.Fatalf("work span %d parents %d, want root %d", r.Span, r.Parent, rootID)
			}
		case "inner":
			inners++
			if byID[r.Parent].Name != "work" {
				t.Fatalf("inner span %d parents %q", r.Span, byID[r.Parent].Name)
			}
			if r.Trace != byID[r.Parent].Trace {
				t.Fatalf("inner span %d crossed traces", r.Span)
			}
		}
	}
	if workers != n || inners != n {
		t.Fatalf("work=%d inner=%d, want %d each", workers, inners, n)
	}
	if st := tr.Stats(); st.Spans != uint64(1+2*n) {
		t.Fatalf("Stats.Spans = %d, want %d", st.Spans, 1+2*n)
	}
}

// TestEnableDisableRace flips the global switch while workers hammer a
// counter; -race verifies the atomic gating, and the final enabled window
// pins that updates flow again afterwards.
func TestEnableDisableRace(t *testing.T) {
	t.Cleanup(obs.DisableMetrics)
	c := obs.NewCounter("test_race_toggle_total", "")
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			obs.EnableMetrics()
			obs.DisableMetrics()
		}
	}()
	parallel.ForEach(2048, 8, func(i int) { c.Inc() })
	stop.Store(true)
	<-done
	obs.EnableMetrics()
	before := c.Value()
	c.Inc()
	if c.Value() != before+1 {
		t.Fatal("counter dead after enable/disable churn")
	}
}
