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
	seen := map[string]bool{}
	numParams := -1
	for i, e := range p.Entries {
		if e.Kernel == "" {
			return fmt.Errorf("profile: entry %d has no kernel name", i)
		}
		if e.Set == nil {
			return fmt.Errorf("profile: entry %d (%s) has no measurements", i, e.Kernel)
		}
		if err := e.Set.Validate(); err != nil {
			return fmt.Errorf("profile: entry %d (%s): %w", i, e.Kernel, err)
		}
		key := e.Kernel + "\x00" + e.Metric
		if seen[key] {
			return fmt.Errorf("profile: duplicate entry for kernel %q metric %q", e.Kernel, e.Metric)
		}
		seen[key] = true
		if numParams == -1 {
			numParams = e.Set.NumParams()
		} else if e.Set.NumParams() != numParams {
			return fmt.Errorf("profile: entry %d (%s) has %d parameters, want %d",
				i, e.Kernel, e.Set.NumParams(), numParams)
		}
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

// Read parses, sanitizes and validates a profile. Each entry's measurement
// set passes through the same default repair pass as the single-set readers
// (NaN/Inf/non-positive/duplicate points); use ReadWith to disable it or to
// observe the per-entry reports.
func Read(r io.Reader) (*Profile, error) {
	return ReadWith(r, ReadOptions{})
}

// ReadWith is Read with explicit options, threading the measurement-set
// sanitization config through every entry: sanitization runs before
// validation (so a set repaired to emptiness still fails, matching
// measurement.ReadJSONWith), and OnSanitize observes each entry that needed
// repair. For O(1)-memory scanning of large campaigns use NewScannerWith
// instead.
func ReadWith(r io.Reader, opts ReadOptions) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	if !opts.Read.NoSanitize {
		for i := range p.Entries {
			e := &p.Entries[i]
			if e.Set == nil {
				continue
			}
			if rep := e.Set.Sanitize(); !rep.Clean() && opts.OnSanitize != nil {
				opts.OnSanitize(e, rep)
			}
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}
