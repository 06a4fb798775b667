package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"extrapdnn/internal/measurement"
	"extrapdnn/internal/obs"
	"extrapdnn/internal/parallel"
	"extrapdnn/internal/profile"
)

// TestModelStreamSpansAndOrder checks the campaign loop's contract for every
// caller: reports arrive in input order with per-entry failures isolated, and
// the trace holds one profile.run (workers resolved from GOMAXPROCS, entries)
// with one profile.entry per kernel, the failed one carrying its error.
func TestModelStreamSpansAndOrder(t *testing.T) {
	m, err := New(nil, Config{DisableDNN: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	// Two points pass validation but are too few to model.
	short := &measurement.Set{Data: []measurement.Measurement{
		{Point: measurement.Point{4}, Values: []float64{4, 4.1}},
		{Point: measurement.Point{8}, Values: []float64{8, 8.1}},
	}}
	entries := []profile.Entry{
		{Kernel: "a", Metric: "time", Set: noisySet(rng, 0.02, func(x float64) float64 { return 1 + x })},
		{Kernel: "bad", Metric: "time", Set: short},
		{Kernel: "c", Metric: "time", Set: noisySet(rng, 0.02, func(x float64) float64 { return 2 * x })},
	}

	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	ctx := obs.ContextWithTracer(context.Background(), tr)
	var order []string
	err = m.ModelStream(ctx, profile.Entries(entries), parallel.StreamConfig{Ordered: true},
		func(i int, e profile.Entry, rep Report, err error) error {
			if e.Kernel != entries[i].Kernel {
				t.Errorf("index %d delivered kernel %s", i, e.Kernel)
			}
			if (err != nil) != (e.Kernel == "bad") {
				t.Errorf("kernel %s: err = %v", e.Kernel, err)
			}
			order = append(order, e.Kernel)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "a,bad,c" {
		t.Fatalf("emit order %s, want a,bad,c", got)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var runAttrs map[string]any
	entryErrs := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec struct {
			Name  string         `json:"name"`
			Attrs map[string]any `json:"attrs"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		switch rec.Name {
		case "profile.run":
			runAttrs = rec.Attrs
		case "profile.entry":
			_, failed := rec.Attrs["error"]
			entryErrs[rec.Attrs[obs.KernelAttr].(string)] = failed
		}
	}
	if runAttrs["workers"] != float64(runtime.GOMAXPROCS(0)) || runAttrs["entries"] != float64(3) {
		t.Fatalf("profile.run attrs %v, want workers %d and entries 3", runAttrs, runtime.GOMAXPROCS(0))
	}
	if len(entryErrs) != 3 || !entryErrs["bad"] || entryErrs["a"] || entryErrs["c"] {
		t.Fatalf("profile.entry error attributes %v, want only kernel bad", entryErrs)
	}
}
