package measurement

import (
	"fmt"
	"math"
)

// SanitizeIssue records one repair or rejection applied by Set.Sanitize.
type SanitizeIssue struct {
	// Index is the measurement's position in the original Data slice.
	Index int
	// Point is a copy of the affected measurement point.
	Point Point
	// Reason describes what was wrong and what was done about it.
	Reason string
}

// SanitizeReport summarizes one Sanitize pass.
type SanitizeReport struct {
	// Issues lists every repair/rejection in original Data order.
	Issues []SanitizeIssue
	// DroppedValues counts repetition values removed (NaN, ±Inf, or
	// non-positive) from measurements that survived.
	DroppedValues int
	// DroppedPoints counts measurements removed entirely (bad coordinates,
	// or no usable repetition values left).
	DroppedPoints int
	// MergedPoints counts duplicate measurements folded into their first
	// occurrence.
	MergedPoints int
}

// Clean reports whether the pass found nothing to repair.
func (r SanitizeReport) Clean() bool { return len(r.Issues) == 0 }

// String renders a one-line summary, e.g. "dropped 1 point, 3 values; merged
// 2 duplicates". The zero report renders "clean".
func (r SanitizeReport) String() string {
	if r.Clean() {
		return "clean"
	}
	return fmt.Sprintf("dropped %d points, %d values; merged %d duplicates",
		r.DroppedPoints, r.DroppedValues, r.MergedPoints)
}

func (r *SanitizeReport) add(idx int, p Point, reason string) {
	r.Issues = append(r.Issues, SanitizeIssue{Index: idx, Point: p.Clone(), Reason: reason})
}

// Sanitize repairs a measurement set in place so that real-world campaign
// data with instrumentation artifacts — NaN/Inf coordinates or runtimes,
// non-positive runtimes from timer underflow, duplicated points from merged
// logs — yields a modelable set instead of a hard failure:
//
//   - a measurement whose point has a NaN, ±Inf or non-positive coordinate is
//     dropped (coordinates are not repairable);
//   - NaN, ±Inf and non-positive repetition values are removed; a measurement
//     with no values left is dropped;
//   - duplicated points are merged: the later occurrence's (surviving) values
//     are appended to the first.
//
// The returned report lists every action. Sanitize does not validate; a set
// can still be invalid afterwards (e.g. empty, or mixed parameter counts —
// arity is a structural property Sanitize leaves to Validate).
func (s *Set) Sanitize() SanitizeReport {
	var rep SanitizeReport
	kept := s.Data[:0]
	seen := make(map[string]int, len(s.Data))
	var key []byte
scan:
	for i, d := range s.Data {
		for _, x := range d.Point {
			if !finite(x) || x <= 0 {
				rep.add(i, d.Point, fmt.Sprintf("dropped: bad coordinate %g", x))
				rep.DroppedPoints++
				continue scan
			}
		}
		good := 0
		for _, v := range d.Values {
			if finite(v) && v > 0 {
				good++
			}
		}
		if good < len(d.Values) {
			vals := make([]float64, 0, good)
			for _, v := range d.Values {
				if finite(v) && v > 0 {
					vals = append(vals, v)
				}
			}
			rep.add(i, d.Point, fmt.Sprintf("removed %d bad values", len(d.Values)-good))
			rep.DroppedValues += len(d.Values) - good
			d.Values = vals
		}
		if len(d.Values) == 0 {
			rep.add(i, d.Point, "dropped: no usable values")
			rep.DroppedPoints++
			continue
		}
		key = d.Point.AppendKey(key[:0], -1)
		if at, dup := seen[string(key)]; dup {
			// Merge into the first occurrence. The three-index slice
			// expression forces the append to reallocate, so the merged
			// values can never scribble over another measurement's backing
			// array.
			prev := kept[at].Values
			kept[at].Values = append(prev[:len(prev):len(prev)], d.Values...)
			rep.add(i, d.Point, "merged into earlier duplicate")
			rep.MergedPoints++
			continue
		}
		seen[string(key)] = len(kept)
		kept = append(kept, d)
	}
	s.Data = kept
	return rep
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// ReadConfig tunes the Read* reader family. The zero value is the default:
// sanitize before validating, discard the report.
type ReadConfig struct {
	// NoSanitize skips the Sanitize pass, so any artifact in the input
	// surfaces as a validation error instead of being repaired.
	NoSanitize bool
	// Report, when non-nil, receives the sanitization report (zero value
	// when NoSanitize is set).
	Report *SanitizeReport
}

// finishRead applies the configured sanitization and validates; every reader
// funnels through it.
func finishRead(set *Set, cfg ReadConfig) (*Set, error) {
	if !cfg.NoSanitize {
		rep := set.Sanitize()
		if cfg.Report != nil {
			*cfg.Report = rep
		}
	}
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("measurement: invalid set: %w", err)
	}
	return set, nil
}
