package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"extrapdnn/internal/dnnmodel"
	"extrapdnn/internal/pmnf"
)

// benchmarkSpec is the part of BENCHMARK.json the bench must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp benchmarkSpec
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestWorkloadsEmitBenchmarkMetrics runs every workload of BENCHMARK.json end
// to end, untraced and traced, at a tiny size, and checks that each prints
// exactly the metrics BENCHMARK.json declares, with its units, and passes
// its output checks.
func TestWorkloadsEmitBenchmarkMetrics(t *testing.T) {
	sp := loadSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the bench runs %d", len(sp.Workloads), len(workloads))
	}
	modelerd := filepath.Join(t.TempDir(), "modelerd")
	if out, err := exec.Command("go", "build", "-o", modelerd, "extrapdnn/cmd/modelerd").CombinedOutput(); err != nil {
		t.Fatalf("build modelerd: %v\n%s", err, out)
	}
	for _, w := range sp.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json workload %q is not a bench workload", w.Name)
		}
		for _, trace := range []bool{false, true} {
			cfg := config{
				seconds:         0.5,
				setupReps:       2,
				topology:        dnnmodel.TinyTopology,
				pretrainSamples: 20,
				pretrainEpochs:  1,
				adaptSamples:    10,
				newCampaigns:    2,
				modelerd:        modelerd,
				out:             t.TempDir(),
				trace:           trace,
			}
			rep, err := run(context.Background(), cfg, w.Name, 1)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, trace, err)
			}
			if !rep.Correct || rep.Attempted == 0 {
				t.Errorf("%s (trace %v): %d of %d operations failed: %v", w.Name, trace, rep.Failed, rep.Attempted, rep.Failures)
			}
			var out bytes.Buffer
			if err := emit(&out, cfg, rep); err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, trace, err)
			}
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
				if _, err := os.Stat(filepath.Join(cfg.out, "trace", w.Name+"-seed1", "spans.jsonl")); err != nil {
					t.Errorf("%s: traced run wrote no spans: %v", w.Name, err)
				}
			}
			checkResultLine(t, w.Name, out.String(), want)
		}
	}
}

// checkResultLine checks that the last output line is the result object
// with exactly the metrics of want.
func checkResultLine(t *testing.T, workload, out string, want []metricSpec) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", workload, err)
	}
	if res.Correct == nil || res.Attempted == nil || res.Failed == nil {
		t.Errorf("%s: result object lacks correct, attempted or failed", workload)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", workload, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", workload, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s = %v", workload, m.Name, got.Value)
		}
	}
}

func TestCheckerFailsBadOutputs(t *testing.T) {
	truth, err := pmnf.Parse("3 + 2*x1")
	if err != nil {
		t.Fatal(err)
	}
	k := &kernel{name: "k", m: 1, ref: true, truth: truth}
	c := newChecker()
	c.observe(k, "3.1 + 1.9*x1", 1.5, nil)
	if c.failed != 0 {
		t.Fatalf("a valid first output failed: %v", c.failures)
	}
	for _, bad := range []struct {
		model string
		smape float64
	}{
		{"3.1 + 1.9*x1", 1.5000001}, // repeat with another SMAPE
		{"3.1 + 1.9*x1^(1/2)", 1.5}, // repeat with another model
		{"3.1 + 1.9*", 1.5},         // unparsable
		{"3.1 + 1.9*x1", math.NaN()},
	} {
		before := c.failed
		c.observe(k, bad.model, bad.smape, nil)
		if c.failed != before+1 {
			t.Errorf("output %q (SMAPE %v) passed the checks", bad.model, bad.smape)
		}
	}
	r := &report{Metrics: map[string]sample{}, Diagnostics: map[string]sample{}}
	c.score(r)
	c.fill(r)
	if r.Correct || r.Failed != 4 || r.Attempted != 5 {
		t.Errorf("report correct=%v failed=%d attempted=%d, want false, 4, 5", r.Correct, r.Failed, r.Attempted)
	}
	if got := r.Metrics["accuracy_pct"].Value; got != 100 {
		t.Errorf("accuracy_pct = %v, want 100 (the first output matches the truth)", got)
	}
}

// TestUnmeasuredMetricFailsRun checks that a run missing a metric still
// prints its result line, as a failed run.
func TestUnmeasuredMetricFailsRun(t *testing.T) {
	c := newChecker()
	r := &report{Workload: "w", Metrics: map[string]sample{}, Diagnostics: map[string]sample{}}
	for _, d := range endToEnd[1:] {
		r.set(d.name, 1, 1)
	}
	r.set("latency_p50_ms", math.NaN(), 0)
	c.require(r, endToEnd)
	c.fill(r)
	if r.Correct || r.Failed != 2 {
		t.Fatalf("report correct=%v failed=%d, want false, 2 (setup_s and latency_p50_ms)", r.Correct, r.Failed)
	}
	var out bytes.Buffer
	if err := emit(&out, config{out: t.TempDir()}, r); err != nil {
		t.Fatal(err)
	}
	checkResultLine(t, "w", out.String(), specOf(endToEnd))
}

func specOf(defs []metricDef) []metricSpec {
	out := make([]metricSpec, len(defs))
	for i, d := range defs {
		out[i] = metricSpec{Name: d.name, Unit: d.unit}
	}
	return out
}
