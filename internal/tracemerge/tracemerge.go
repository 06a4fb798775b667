// Package tracemerge merges obs JSONL trace files — typically one written by
// a perfmodeler client and one by a modelerd daemon — into per-trace span
// trees and renders a human-readable campaign timeline. It is the analysis
// half of cross-process trace propagation (internal/obs traceparent):
// because the client and server record into one shared trace ID space, a
// chaos-faulted campaign scattered over two files reassembles into a single
// tree here. cmd/traceview is the CLI wrapper.
package tracemerge

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"extrapdnn/internal/obs"
)

// Span is one JSONL span record plus the file it came from.
type Span struct {
	Trace  uint64         `json:"trace"`
	Span   uint64         `json:"span"`
	Parent uint64         `json:"parent"`
	Name   string         `json:"name"`
	Start  string         `json:"start"` // RFC3339Nano
	DurNS  int64          `json:"dur_ns"`
	Attrs  map[string]any `json:"attrs"`
	Links  []obs.SpanLink `json:"links"`

	Source string `json:"-"` // label of the file the record was read from
}

// StartTime parses the span's start timestamp (zero time on a malformed one).
func (s *Span) StartTime() time.Time {
	t, _ := time.Parse(time.RFC3339Nano, s.Start)
	return t
}

// Attr returns a string rendering of an attribute value ("" when absent).
func (s *Span) Attr(key string) string {
	v, ok := s.Attrs[key]
	if !ok {
		return ""
	}
	switch x := v.(type) {
	case string:
		return x
	case float64:
		if x == float64(int64(x)) {
			return fmt.Sprintf("%d", int64(x))
		}
		return fmt.Sprintf("%g", x)
	case bool:
		return fmt.Sprintf("%v", x)
	default:
		return fmt.Sprintf("%v", x)
	}
}

// Read decodes JSONL span records from r, labeling each with source. Blank
// lines are skipped; a malformed line is an error (trace files are
// machine-written — corruption should be loud).
func Read(r io.Reader, source string) ([]Span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var spans []Span
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var s Span
		if err := json.Unmarshal([]byte(text), &s); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", source, line, err)
		}
		s.Source = source
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", source, err)
	}
	return spans, nil
}

// ReadFile reads one trace file, labeling spans with the file's base name.
func ReadFile(path string) ([]Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base := path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		base = path[i+1:]
	}
	return Read(f, base)
}

// Trace is all spans sharing one trace ID, sorted by start time.
type Trace struct {
	ID    uint64
	Spans []Span
}

// Merge groups spans from any number of files by trace ID. Within a trace,
// spans sort by start time (ties by span ID for determinism); traces sort by
// their earliest span.
func Merge(files ...[]Span) []Trace {
	byTrace := map[uint64][]Span{}
	for _, spans := range files {
		for _, s := range spans {
			byTrace[s.Trace] = append(byTrace[s.Trace], s)
		}
	}
	traces := make([]Trace, 0, len(byTrace))
	for id, spans := range byTrace {
		sort.Slice(spans, func(i, j int) bool {
			ti, tj := spans[i].StartTime(), spans[j].StartTime()
			if !ti.Equal(tj) {
				return ti.Before(tj)
			}
			return spans[i].Span < spans[j].Span
		})
		traces = append(traces, Trace{ID: id, Spans: spans})
	}
	sort.Slice(traces, func(i, j int) bool {
		ti, tj := traces[i].Spans[0].StartTime(), traces[j].Spans[0].StartTime()
		if !ti.Equal(tj) {
			return ti.Before(tj)
		}
		return traces[i].ID < traces[j].ID
	})
	return traces
}

// Roots returns the spans whose parent is absent from the trace — true roots
// plus orphans whose parent span was lost (e.g. the file of the other process
// was not provided).
func (tr Trace) Roots() []Span {
	have := make(map[uint64]bool, len(tr.Spans))
	for _, s := range tr.Spans {
		have[s.Span] = true
	}
	var roots []Span
	for _, s := range tr.Spans {
		if s.Parent == 0 || !have[s.Parent] {
			roots = append(roots, s)
		}
	}
	return roots
}

// WriteTimeline renders the trace as an indented span tree (children under
// parents, ordered by start time) followed by a per-kernel timeline of the
// kernel-labeled spans — the "what did this campaign do, when, in which
// process" view.
func WriteTimeline(w io.Writer, tr Trace) {
	if len(tr.Spans) == 0 {
		return
	}
	t0 := tr.Spans[0].StartTime()
	sources := map[string]bool{}
	children := map[uint64][]Span{}
	have := map[uint64]bool{}
	for _, s := range tr.Spans {
		sources[s.Source] = true
		have[s.Span] = true
	}
	for _, s := range tr.Spans {
		if s.Parent != 0 && have[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	srcNames := make([]string, 0, len(sources))
	for s := range sources {
		srcNames = append(srcNames, s)
	}
	sort.Strings(srcNames)
	fmt.Fprintf(w, "trace %016x: %d spans across %s\n", tr.ID, len(tr.Spans), strings.Join(srcNames, ", "))

	var emit func(s Span, depth int)
	emit = func(s Span, depth int) {
		fmt.Fprintf(w, "  %s%s\n", strings.Repeat("  ", depth), describe(s, t0))
		for _, c := range children[s.Span] {
			emit(c, depth+1)
		}
	}
	for _, root := range tr.Roots() {
		emit(root, 0)
	}

	var kernels []Span
	for _, s := range tr.Spans {
		if s.Attr(obs.KernelAttr) != "" {
			kernels = append(kernels, s)
		}
	}
	if len(kernels) == 0 {
		return
	}
	fmt.Fprintf(w, "  kernels (%d):\n", len(kernels))
	for _, s := range kernels {
		fmt.Fprintf(w, "    %-20s +%-12s %-12s [%s]\n",
			s.Attr(obs.KernelAttr),
			s.StartTime().Sub(t0).Round(time.Microsecond),
			time.Duration(s.DurNS).Round(time.Microsecond),
			s.Source)
	}
}

// describe renders one span line: name, offset, duration, source, and the
// attributes that matter for campaign forensics.
func describe(s Span, t0 time.Time) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s +%-12s %-12s [%s]",
		s.Name,
		s.StartTime().Sub(t0).Round(time.Microsecond),
		time.Duration(s.DurNS).Round(time.Microsecond),
		s.Source)
	for _, key := range []string{obs.KernelAttr, "attempt", "resume", "retry", "client", "endpoint", "request_id", "confirmed", "entries", "status"} {
		if v := s.Attr(key); v != "" {
			fmt.Fprintf(&b, " %s=%s", key, v)
		}
	}
	for _, l := range s.Links {
		fmt.Fprintf(&b, " link=%016x", l.Span)
	}
	return b.String()
}
