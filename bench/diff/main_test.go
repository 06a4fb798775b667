package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Fatalf("quartiles = %v, want %v", got, want)
	}
}

func TestClassify(t *testing.T) {
	seq := func(from, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = from + step*float64(i)
		}
		return xs
	}
	pairs := func(p, c []float64) [][2]float64 {
		out := make([][2]float64, len(p))
		for i := range p {
			out[i] = [2]float64{p[i], c[i]}
		}
		return out
	}
	bound := 0.10
	lower := metricSpec{Better: "lower", Bound: &bound}
	layer := metricSpec{Better: "lower"}
	accuracy := metricSpec{Name: "accuracy_pct", Better: "higher", Bound: &bound}
	drop := func(xs []float64, i int, by float64) []float64 {
		out := append([]float64(nil), xs...)
		out[i] += by
		return out
	}
	acc := seq(80, 0)
	cases := []struct {
		name   string
		p, c   []float64
		m      metricSpec
		expect string
	}{
		{"improved", seq(100, 1), seq(80, 1), lower, "improved"},
		{"regressed", seq(100, 1), seq(120, 1), lower, "regressed"},
		{"within bound", seq(100, 1), seq(105, 1), lower, "unchanged"},
		{"noisy parent", seq(50, 15), seq(60, 15), lower, "unresolved"},
		{"per-layer loss", seq(100, 1), seq(120, 1), layer, "regressed"},
		{"per-layer noise", seq(100, 1), seq(101, 1), layer, "unchanged"},
		// One kernel of one seed lost: far inside the bound, still regressed.
		{"accuracy one kernel lost", acc, drop(acc, 3, -2.5), accuracy, "regressed"},
		{"accuracy one kernel gained", acc, drop(acc, 3, 2.5), accuracy, "improved"},
		{"accuracy equal", acc, acc, accuracy, "unchanged"},
	}
	for _, tc := range cases {
		if got, _ := classify(tc.p, tc.c, pairs(tc.p, tc.c), tc.m); got != tc.expect {
			t.Errorf("%s: classify = %q, want %q", tc.name, got, tc.expect)
		}
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	write := func(path, body string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(spec, `{"end_to_end": [{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}], "per_layer": []}`)
	for seed, v := range []float64{10, 10.1, 10.2} {
		run := `{"workload": "w", "seed": %d, "metrics": {"latency_p50_ms": {"value": %g}}}`
		name := fmt.Sprintf("w-seed%d-trace0.json", seed)
		write(filepath.Join(dir, "parent", name), fmt.Sprintf(run, seed, v))
		write(filepath.Join(dir, "change", name), fmt.Sprintf(run, seed, 2*v))
	}
	var out strings.Builder
	regressed, err := compare(&out, spec, filepath.Join(dir, "parent"), filepath.Join(dir, "change"))
	if err != nil {
		t.Fatal(err)
	}
	if !regressed || !strings.Contains(out.String(), "regressed") {
		t.Fatalf("a doubled latency was not flagged:\n%s", out.String())
	}
}
