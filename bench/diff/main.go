// Command diff compares two sets of benchmark runs — the parent commit's and
// a change's — metric by metric. Each directory holds the per-run result
// files the benchmark writes under .bench_out/results. Run from bench/:
//
//	go run ./diff -spec ../BENCHMARK.json PARENT_DIR CHANGE_DIR
//
// For every workload and metric it prints each side's median and quartiles,
// the share of seed-paired runs the change won, and a verdict:
//
//   - improved: the change won at least nine tenths of the pairs (ties count
//     for neither side) and the medians differ by more than the parent's
//     quartile distance;
//   - regressed: an end-to-end median is worse than the parent's by more than
//     the metric's bound, or a per-layer metric (which has no bound) lost by
//     the improved rule mirrored;
//   - unresolved: the parent's own spread is wider than the bound and not
//     every change run reads better than every parent run;
//   - unchanged: anything else.
//
// accuracy_pct is exact: the bench scores it on reference kernels that are
// the same for every seed, so a run repeats it to the last digit. It
// regressed when the change lost any seed-paired run, and improved when it
// won some and lost none.
//
// A gain does not count when more operations failed than at the parent. The
// exit status is 1 when an end-to-end metric regressed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"` // nil for per-layer metrics
}

// run is one per-run result file of the benchmark.
type run struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Failed   int    `json:"failed"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	specPath := flag.String("spec", "../BENCHMARK.json", "the benchmark definition")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: diff [-spec BENCHMARK.json] PARENT_DIR CHANGE_DIR")
		os.Exit(2)
	}
	regressed, err := compare(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "diff:", err)
		os.Exit(2)
	}
	if regressed {
		os.Exit(1)
	}
}

// compare prints the comparison table and reports whether an end-to-end
// metric regressed.
func compare(w io.Writer, specPath, parentDir, changeDir string) (bool, error) {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	parent, err := readRuns(parentDir)
	if err != nil {
		return false, err
	}
	change, err := readRuns(changeDir)
	if err != nil {
		return false, err
	}
	var workloads []string
	for wl := range parent {
		if _, ok := change[wl]; ok {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		return false, fmt.Errorf("no workload has runs in both %s and %s", parentDir, changeDir)
	}

	fmt.Fprintf(w, "%-14s %-30s %32s %32s %8s %7s %6s  %s\n",
		"workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "won", "bound", "verdict")
	regressed := false
	for _, wl := range workloads {
		for _, group := range []struct {
			trace   bool
			metrics []metricSpec
		}{{false, sp.EndToEnd}, {true, sp.PerLayer}} {
			p, c := parent[wl][group.trace], change[wl][group.trace]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			moreFailures := failures(c) > failures(p)
			for _, m := range group.metrics {
				pv, cv, pairs := values(p, c, m.Name)
				if len(pv) == 0 || len(cv) == 0 {
					continue
				}
				v, won := classify(pv, cv, pairs, m)
				if v == "improved" && moreFailures {
					v = "unresolved: more failed operations"
				}
				if v == "regressed" && m.Bound != nil {
					regressed = true
				}
				bound := "-"
				if m.Bound != nil {
					bound = fmt.Sprintf("%.0f%%", 100**m.Bound)
				}
				pq, cq := quartiles(pv), quartiles(cv)
				fmt.Fprintf(w, "%-14s %-30s %32s %32s %+7.1f%% %3d/%-3d %6s  %s\n",
					wl, m.Name, fmtQ(pq), fmtQ(cq), 100*(cq[1]-pq[1])/pq[1], won, len(pairs), bound, v)
			}
		}
	}
	return regressed, nil
}

// readRuns loads every result file of dir, keyed by workload and trace flag.
func readRuns(dir string) (map[string]map[bool][]run, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[bool][]run{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r run
		if err := json.Unmarshal(b, &r); err != nil || r.Workload == "" {
			return nil, fmt.Errorf("%s is not a benchmark result file", f)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[bool][]run{}
		}
		out[r.Workload][r.Trace] = append(out[r.Workload][r.Trace], r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	return out, nil
}

func failures(runs []run) int {
	n := 0
	for _, r := range runs {
		n += r.Failed
	}
	return n
}

// values returns both sides' values of one metric and the (parent, change)
// pairs of runs that share a seed.
func values(parent, change []run, metric string) (pv, cv []float64, pairs [][2]float64) {
	bySeed := map[int64]float64{}
	for _, r := range parent {
		if m, ok := r.Metrics[metric]; ok {
			pv = append(pv, m.Value)
			bySeed[r.Seed] = m.Value
		}
	}
	for _, r := range change {
		if m, ok := r.Metrics[metric]; ok {
			cv = append(cv, m.Value)
			if p, ok := bySeed[r.Seed]; ok {
				pairs = append(pairs, [2]float64{p, m.Value})
			}
		}
	}
	return pv, cv, pairs
}

// exact are the metrics a run repeats exactly; see the package comment.
var exact = map[string]bool{"accuracy_pct": true}

// classify applies the decision rule of the package comment and returns the
// verdict and the number of pairs the change won.
func classify(pv, cv []float64, pairs [][2]float64, m metricSpec) (string, int) {
	pq, cq := quartiles(pv), quartiles(cv)
	won, lost := 0, 0
	for _, pr := range pairs {
		switch {
		case better(pr[1], pr[0], m.Better):
			won++
		case better(pr[0], pr[1], m.Better):
			lost++
		}
	}
	if exact[m.Name] && len(pairs) > 0 {
		switch {
		case lost > 0:
			return "regressed", won
		case won > 0:
			return "improved", won
		}
		return "unchanged", won
	}
	apart := math.Abs(cq[1]-pq[1]) > pq[2]-pq[0]
	if len(pairs) > 0 && 10*won >= 9*len(pairs) && apart && better(cq[1], pq[1], m.Better) {
		return "improved", won
	}
	if m.Bound == nil {
		if len(pairs) > 0 && 10*lost >= 9*len(pairs) && apart {
			return "regressed", won
		}
		return "unchanged", won
	}
	spread := (pq[2] - pq[0]) / math.Abs(pq[1])
	if spread > *m.Bound && !separated(cv, pv, m.Better) {
		return "unresolved", won
	}
	if worse := (cq[1] - pq[1]) / math.Abs(pq[1]); (m.Better == "lower" && worse > *m.Bound) ||
		(m.Better == "higher" && -worse > *m.Bound) {
		return "regressed", won
	}
	return "unchanged", won
}

// better reports whether a reads better than b.
func better(a, b float64, direction string) bool {
	if direction == "higher" {
		return a > b
	}
	return a < b
}

// separated reports whether every value of a reads better than every value
// of b.
func separated(a, b []float64, direction string) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(x, y, direction) {
				return false
			}
		}
	}
	return true
}

// quartiles returns the first quartile, the median and the third quartile,
// computed like Python's statistics.quantiles(xs, n=4) (its default
// "exclusive" method); a single value is all three.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func fmtQ(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}
