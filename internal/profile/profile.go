// Package profile defines the application-profile data model: a complete
// performance measurement campaign of one application, holding one
// measurement set per (kernel, metric) pair — the shape in which Extra-P
// consumes real-world data, where every call path of an instrumented run is
// modeled separately. The case-study tooling writes profiles so the
// modeling tools can consume them kernel by kernel.
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"extrapdnn/internal/measurement"
)

// Entry is the measurements of one kernel (call path) and metric.
type Entry struct {
	Kernel string `json:"kernel"`
	Metric string `json:"metric"` // e.g. "runtime"
	// RuntimeShare optionally records the kernel's fraction of total
	// application runtime; the predictive-power analysis filters kernels at
	// or below 1%.
	RuntimeShare float64          `json:"runtime_share,omitempty"`
	Set          *measurement.Set `json:"measurements"`
}

// Profile is a complete campaign: application metadata plus per-kernel
// measurement sets over a common experiment design.
type Profile struct {
	Application string   `json:"application"`
	ParamNames  []string `json:"param_names,omitempty"`
	Entries     []Entry  `json:"entries"`
}

// Validate checks structural invariants: a nonempty application name, at
// least one entry, valid measurement sets, unique (kernel, metric) pairs,
// and a consistent parameter count.
func (p *Profile) Validate() error {
	if p.Application == "" {
		return fmt.Errorf("profile: application name is empty")
	}
	if len(p.Entries) == 0 {
		return fmt.Errorf("profile: no entries")
	}
	c := entryCheck{seen: map[string]bool{}}
	for i := range p.Entries {
		if err := c.check(i, &p.Entries[i]); err != nil {
			return err
		}
	}
	return nil
}

// entryCheck holds the per-entry invariants of a profile, shared by
// Profile.Validate and the Scanner: a kernel name, a valid measurement set,
// unique (kernel, metric) pairs and one parameter count.
type entryCheck struct {
	sanitize  func(*Entry) // runs before the set is validated; nil skips it
	seen      map[string]bool
	numParams int // 0 until the first entry: a valid set has parameters
}

// check validates entry i.
func (c *entryCheck) check(i int, e *Entry) error {
	if e.Kernel == "" {
		return fmt.Errorf("profile: entry %d has no kernel name", i)
	}
	if e.Set == nil {
		return fmt.Errorf("profile: entry %d (%s) has no measurements", i, e.Kernel)
	}
	if c.sanitize != nil {
		c.sanitize(e)
	}
	if err := e.Set.Validate(); err != nil {
		return fmt.Errorf("profile: entry %d (%s): %w", i, e.Kernel, err)
	}
	key := e.Kernel + "\x00" + e.Metric
	if c.seen[key] {
		return fmt.Errorf("profile: duplicate entry for kernel %q metric %q", e.Kernel, e.Metric)
	}
	c.seen[key] = true
	if c.numParams == 0 {
		c.numParams = e.Set.NumParams()
	} else if e.Set.NumParams() != c.numParams {
		return fmt.Errorf("profile: entry %d (%s) has %d parameters, want %d",
			i, e.Kernel, e.Set.NumParams(), c.numParams)
	}
	return nil
}

// NumParams returns the number of execution parameters (0 for an empty
// profile).
func (p *Profile) NumParams() int {
	if len(p.Entries) == 0 || p.Entries[0].Set == nil {
		return len(p.ParamNames)
	}
	return p.Entries[0].Set.NumParams()
}

// Kernels returns the sorted distinct kernel names.
func (p *Profile) Kernels() []string {
	set := map[string]bool{}
	for _, e := range p.Entries {
		set[e.Kernel] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Write emits the profile as indented JSON.
func (p *Profile) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p); err != nil {
		return fmt.Errorf("profile: encode: %w", err)
	}
	return nil
}

// Read parses, sanitizes and validates a whole profile in either format by
// draining a Scanner (NewScanner): the single-object array format
// (Profile.Write) or the JSONL stream format (Writer, appsim -jsonl). Each
// entry's measurement set passes through the same default repair pass as
// the single-set readers (NaN/Inf/non-positive/duplicate points); use
// NewScannerWith to disable it or to observe the per-entry reports.
func Read(r io.Reader) (*Profile, error) {
	sc, err := NewScanner(r)
	if err != nil {
		return nil, err
	}
	p := &Profile{Application: sc.Application(), ParamNames: sc.ParamNames()}
	for sc.Scan() {
		p.Entries = append(p.Entries, sc.Entry())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return p, nil
}
