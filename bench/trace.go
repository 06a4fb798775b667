package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records the bench's own spans around every call it makes into the
// program. Spans stay in memory and are written when the run ends. A nil
// tracer (the untraced run) records nothing.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one finished span; times are nanoseconds since the run began.
type spanRec struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// span is an open span; a nil span ignores end.
type span struct {
	tr  *tracer
	rec spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent, or a new trace when parent is nil.
func (t *tracer) start(parent *span, name string) *span {
	if t == nil {
		return nil
	}
	id := t.ids.Add(1)
	s := &span{tr: t, rec: spanRec{Name: name, Trace: id, ID: id, Start: int64(time.Since(t.t0))}}
	if parent != nil {
		s.rec.Trace, s.rec.Parent = parent.rec.Trace, parent.rec.ID
	}
	return s
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.rec.End = int64(time.Since(s.tr.t0))
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, s.rec)
	s.tr.mu.Unlock()
}

// timed runs fn inside a span and returns its wall time.
func (t *tracer) timed(parent *span, name string, fn func()) time.Duration {
	s := t.start(parent, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	s.end()
	return d
}

// layerSummary aggregates the spans of one name. Self time is a span's
// duration minus the part of it its child spans cover.
type layerSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50MS   float64 `json:"p50_ms"`
}

func (t *tracer) summary() []layerSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][]spanRec{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type acc struct {
		total, self float64
		durs        []float64
	}
	byName := map[string]*acc{}
	for _, s := range t.spans {
		a := byName[s.Name]
		if a == nil {
			a = &acc{}
			byName[s.Name] = a
		}
		dur := float64(s.End - s.Start)
		a.total += dur
		a.self += dur - covered(s, children[s.ID])
		a.durs = append(a.durs, dur)
	}
	out := make([]layerSummary, 0, len(byName))
	for name, a := range byName {
		out = append(out, layerSummary{name, len(a.durs), a.total / 1e6, a.self / 1e6, median(a.durs) / 1e6})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered returns the nanoseconds of parent's interval that the union of the
// children's intervals covers.
func covered(parent spanRec, children []spanRec) float64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	total, end := int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > end {
			total += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return float64(total)
}

// write stores the spans as JSONL and a summary holding the per-layer
// metrics, the diagnostics and the self time of every span name.
func (t *tracer) write(dir string, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	perLayerOnly := map[string]sample{}
	for _, d := range perLayer {
		if s, ok := rep.Metrics[d.name]; ok {
			perLayerOnly[d.name] = s
		}
	}
	sum, err := json.MarshalIndent(struct {
		Workload    string            `json:"workload"`
		Seed        int64             `json:"seed"`
		PerLayer    map[string]sample `json:"per_layer"`
		Diagnostics map[string]sample `json:"diagnostics"`
		Layers      []layerSummary    `json:"layers"`
	}{rep.Workload, rep.Seed, perLayerOnly, rep.Diagnostics, t.summary()}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "summary.json"), append(sum, '\n'), 0o644)
}
