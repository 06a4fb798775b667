package main

import (
	"fmt"
	"math"
	"sync"

	"extrapdnn/internal/obs"
	"extrapdnn/internal/pmnf"
)

// maxFailureNotes bounds the failure messages a report keeps.
const maxFailureNotes = 10

// checker validates every output the program returns: the call succeeded,
// the model parses and its SMAPE is finite, and a repeat of a kernel returns
// exactly its first output. It also scores each distinct kernel's first
// model against the kernel's ground truth.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	first     map[string]outcome
	accurate  map[*kernel]bool
}

// outcome is what the program returned for one kernel.
type outcome struct {
	model string
	smape float64
}

func newChecker() *checker {
	return &checker{first: map[string]outcome{}, accurate: map[*kernel]bool{}}
}

// observe checks one output of the program for kernel k.
func (c *checker) observe(k *kernel, model string, smape float64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if msg := c.problem(k, model, smape, err); msg != "" {
		c.note(k.name + ": " + msg)
	}
}

// fail records a failed operation that produced no output to check.
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	c.note(fmt.Sprintf(format, args...))
}

func (c *checker) note(msg string) {
	c.failed++
	if len(c.failures) < maxFailureNotes {
		c.failures = append(c.failures, msg)
	}
}

func (c *checker) problem(k *kernel, model string, smape float64, err error) string {
	if err != nil {
		return err.Error()
	}
	if math.IsNaN(smape) || math.IsInf(smape, 0) {
		return fmt.Sprintf("non-finite SMAPE %v", smape)
	}
	parsed, err := pmnf.Parse(model)
	if err != nil {
		return fmt.Sprintf("unparsable model %q: %v", model, err)
	}
	if f, seen := c.first[k.name]; seen {
		if f.model != model || math.Float64bits(f.smape) != math.Float64bits(smape) {
			return fmt.Sprintf("repeat returned %q (SMAPE %v), the first output was %q (SMAPE %v)",
				model, smape, f.model, f.smape)
		}
		return ""
	}
	c.first[k.name] = outcome{model, smape}
	c.accurate[k] = leadDistance(parsed, k.truth, k.m) <= 0.5
	return ""
}

// score sets accuracy_pct over the reference kernels the program modeled,
// and, as a diagnostic, the accuracy over every kernel it modeled.
func (c *checker) score(r *report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var refs, refGood, good int
	for k, ok := range c.accurate {
		if k.ref {
			refs++
			refGood += btoi(ok)
		}
		good += btoi(ok)
	}
	if refs > 0 {
		r.set("accuracy_pct", 100*float64(refGood)/float64(refs), refs)
	}
	if n := len(c.accurate); n > 0 {
		r.diag("accuracy_all_pct", "%", 100*float64(good)/float64(n), n)
	}
}

// require fails the run for every metric of defs the workload could not
// measure, and reports it as 0 so the result line can still be printed.
func (c *checker) require(r *report, defs []metricDef) {
	for _, d := range defs {
		if s, ok := r.Metrics[d.name]; !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			c.fail("metric %s could not be measured", d.name)
			r.set(d.name, 0, 0)
		}
	}
}

// fill copies the counts and the failures into r.
func (c *checker) fill(r *report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r.Attempted, r.Failed = c.attempted, c.failed
	r.Failures = c.failures
	r.Correct = c.failed == 0 && c.attempted > 0
}

// leadDistance is pmnf.LeadDistance over m parameters: a model that omits
// trailing parameters (Parse infers the count from the highest index) is
// padded with constant exponents, and one that names more is infinitely far.
func leadDistance(got, truth pmnf.Model, m int) float64 {
	a, b := got.LeadExponents(), truth.LeadExponents()
	if len(a) > m || len(b) > m {
		return math.Inf(1)
	}
	d := 0.0
	for l := 0; l < m; l++ {
		var ea, eb pmnf.Exponents
		if l < len(a) {
			ea = a[l]
		}
		if l < len(b) {
			eb = b[l]
		}
		d = math.Max(d, pmnf.Distance(ea, eb))
	}
	return d
}

// liveStats collects what the traced run reads from the live workload's
// measured window: the program's own per-kernel duration breakdown and its
// obs counters at the window's start and end.
type liveStats struct {
	mu             sync.Mutex
	open           bool
	adapt, dnn, rg []float64 // milliseconds per kernel
	before, after  obs.Snapshot
}

// begin opens the measured window; add records only inside it.
func (l *liveStats) begin(s obs.Snapshot) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.open, l.before = true, s
}

func (l *liveStats) end(s obs.Snapshot) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.open, l.after = false, s
}

func (l *liveStats) add(adaptMS, dnnMS, regressionMS float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.open {
		return
	}
	l.adapt = append(l.adapt, adaptMS)
	l.dnn = append(l.dnn, dnnMS)
	l.rg = append(l.rg, regressionMS)
}

func (l *liveStats) report(r *report) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r.set("core.adapt_ms_per_kernel", mean(l.adapt), len(l.adapt))
	r.set("core.dnn_ms_per_kernel", mean(l.dnn), len(l.dnn))
	r.set("core.regression_ms_per_kernel", mean(l.rg), len(l.rg))
	delta := func(name string) float64 {
		return float64(l.after.Counter(name) - l.before.Counter(name))
	}
	hits := delta("extrapdnn_adaptcache_hits_total")
	misses := delta("extrapdnn_adaptcache_misses_total")
	r.set("adaptcache.hits", hits, 1)
	r.set("adaptcache.misses", misses, 1)
	r.set("adaptcache.hit_ratio", hits/(hits+misses), 1)
	r.set("adaptcache.singleflight_waits", delta("extrapdnn_adaptcache_singleflight_waits_total"), 1)
	r.set("nn.train_epochs", delta("extrapdnn_nn_train_epochs_total"), 1)
}
