// Package measurement defines the experiment data model shared by every
// modeler: measurement points (a coordinate per execution parameter),
// repeated measured values per point, and the per-point median reduction the
// paper uses to dampen noise. It also provides JSON serialization so
// measurement sets can be stored and fed to the CLI tools.
package measurement

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"extrapdnn/internal/stats"
)

// MinPointsPerParameter is the minimum number of distinct values per
// execution parameter Extra-P needs for modeling (Section III of the paper).
const MinPointsPerParameter = 5

// MaxPointsPerParameter is the largest number of values per parameter the
// DNN input encoding supports; more is rarely measurable in practice
// (Section IV-C).
const MaxPointsPerParameter = 11

// Point is one measurement point P(x1..xm): the value of every execution
// parameter for an experiment.
type Point []float64

// Equal reports whether two points have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i, v := range p {
		if v != q[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of p.
func (p Point) Clone() Point {
	c := make(Point, len(p))
	copy(c, p)
	return c
}

// AppendKey appends the big-endian Float64bits of every coordinate except
// the one at index skip (-1 keeps all) to buf. Two points have equal keys
// exactly when those coordinates are bit-identical, which for the positive
// finite coordinates of a valid set is coordinate equality.
func (p Point) AppendKey(buf []byte, skip int) []byte {
	for l, x := range p {
		if l != skip {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(x))
		}
	}
	return buf
}

// String renders the point as "P(8, 64)".
func (p Point) String() string {
	s := "P("
	for i, v := range p {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%g", v)
	}
	return s + ")"
}

// Measurement is the set of repeated measured values at one point.
type Measurement struct {
	Point  Point     `json:"point"`
	Values []float64 `json:"values"` // one value per repetition, e.g. runtimes in seconds
}

// Median returns the median of the repetitions, the representative value the
// paper models. It returns an error when no repetitions exist.
func (m Measurement) Median() (float64, error) {
	if len(m.Values) == 0 {
		return 0, fmt.Errorf("measurement at %v has no values", m.Point)
	}
	return stats.Median(m.Values), nil
}

// Set is a complete measurement set for one modeling task: one entry per
// measurement point, each with its repetitions.
type Set struct {
	ParamNames []string      `json:"param_names,omitempty"` // display names, e.g. ["p", "size"]
	Metric     string        `json:"metric,omitempty"`      // e.g. "runtime"
	Data       []Measurement `json:"data"`
}

// NumParams returns the number of execution parameters, inferred from the
// first measurement (or ParamNames when the set is empty).
func (s *Set) NumParams() int {
	if len(s.Data) > 0 {
		return len(s.Data[0].Point)
	}
	return len(s.ParamNames)
}

// Validate checks structural invariants: at least one measurement, equal
// parameter counts everywhere, positive finite parameter values, nonempty
// finite repetitions, and no duplicated points. Points are compared by the
// Float64bits of their coordinates (see AppendKey).
func (s *Set) Validate() error {
	if len(s.Data) == 0 {
		return errors.New("measurement set is empty")
	}
	m := len(s.Data[0].Point)
	if m == 0 {
		return errors.New("measurement points have no parameters")
	}
	seen := make(map[string]struct{}, len(s.Data))
	var key []byte
	for i, d := range s.Data {
		if len(d.Point) != m {
			return fmt.Errorf("measurement %d has %d parameters, want %d", i, len(d.Point), m)
		}
		for l, x := range d.Point {
			if !finite(x) || x <= 0 {
				return fmt.Errorf("measurement %d: parameter %d value %g must be positive and finite", i, l, x)
			}
		}
		if len(d.Values) == 0 {
			return fmt.Errorf("measurement %d at %v has no repetitions", i, d.Point)
		}
		for _, v := range d.Values {
			if !finite(v) {
				return fmt.Errorf("measurement %d at %v has non-finite value %g", i, d.Point, v)
			}
		}
		key = d.Point.AppendKey(key[:0], -1)
		if _, dup := seen[string(key)]; dup {
			return fmt.Errorf("duplicate measurement point %v", d.Point)
		}
		seen[string(key)] = struct{}{}
	}
	return nil
}

// Medians returns the points and the per-point median values, the inputs the
// modelers consume. A point without values gets median 0.
func (s *Set) Medians() (points []Point, values []float64) {
	points = make([]Point, len(s.Data))
	values = make([]float64, len(s.Data))
	var scratch []float64
	for i, d := range s.Data {
		points[i] = d.Point
		if len(d.Values) == 0 {
			continue
		}
		// MedianInPlace on a copy is stats.Median without its per-call copy.
		scratch = append(scratch[:0], d.Values...)
		values[i] = stats.MedianInPlace(scratch)
	}
	return points, values
}

// Repetitions returns the largest repetition count in the set.
func (s *Set) Repetitions() int {
	r := 0
	for _, d := range s.Data {
		if len(d.Values) > r {
			r = len(d.Values)
		}
	}
	return r
}
