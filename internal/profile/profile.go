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
	return p.validate(nil)
}

// validate is Validate with an optional per-entry repair pass.
func (p *Profile) validate(sanitize func(*Entry)) error {
	if p.Application == "" {
		return fmt.Errorf("profile: application name is empty")
	}
	if len(p.Entries) == 0 {
		return fmt.Errorf("profile: no entries")
	}
	c := entryCheck{sanitize: sanitize, seen: map[string]bool{}}
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

// Read parses, sanitizes and validates a profile in either format: the
// single-object array format (Profile.Write) or the JSONL stream format
// (Writer, appsim -jsonl). Each entry's measurement set passes through the
// same default repair pass as the single-set readers
// (NaN/Inf/non-positive/duplicate points); use ReadWith to disable it or to
// observe the per-entry reports.
func Read(r io.Reader) (*Profile, error) {
	return ReadWith(r, ReadOptions{})
}

// ReadWith is Read with explicit options, threading the measurement-set
// sanitization config through every entry: sanitization runs before
// validation (so a set repaired to emptiness still fails, matching
// measurement.ReadJSONWith), and OnSanitize observes each entry that needed
// repair. A first object without entries is a JSONL header that the entries
// follow. Unlike the Scanner, ReadWith accepts an array-format application
// name after the entries. For O(1)-memory scanning use NewScannerWith.
func ReadWith(r io.Reader, opts ReadOptions) (*Profile, error) {
	var p Profile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	if len(p.Entries) == 0 {
		for dec.More() {
			var e Entry
			if err := dec.Decode(&e); err != nil {
				return nil, fmt.Errorf("profile: decode entry %d: %w", len(p.Entries), err)
			}
			p.Entries = append(p.Entries, e)
		}
	}
	if err := p.validate(opts.sanitizer()); err != nil {
		return nil, err
	}
	return &p, nil
}
