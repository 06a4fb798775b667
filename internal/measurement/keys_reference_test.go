package measurement

// Validate and Sanitize key points by the Float64bits of their coordinates.
// refValidate and refSanitize below are the code they replaced, keyed by
// Point.String, retained verbatim apart from the names: for the positive
// finite coordinates both accept, the two keys must find the same
// duplicates and merge the same points.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// refValidate is the Point.String-keyed Validate.
func refValidate(s *Set) error {
	if len(s.Data) == 0 {
		return errors.New("measurement set is empty")
	}
	m := len(s.Data[0].Point)
	if m == 0 {
		return errors.New("measurement points have no parameters")
	}
	seen := make(map[string]bool, len(s.Data))
	for i, d := range s.Data {
		if len(d.Point) != m {
			return fmt.Errorf("measurement %d has %d parameters, want %d", i, len(d.Point), m)
		}
		for l, x := range d.Point {
			if x <= 0 {
				return fmt.Errorf("measurement %d: parameter %d value %g must be positive", i, l, x)
			}
		}
		if len(d.Values) == 0 {
			return fmt.Errorf("measurement %d at %v has no repetitions", i, d.Point)
		}
		key := d.Point.String()
		if seen[key] {
			return fmt.Errorf("duplicate measurement point %v", d.Point)
		}
		seen[key] = true
	}
	return nil
}

// refSanitize is the Point.String-keyed Sanitize.
func refSanitize(s *Set) SanitizeReport {
	var rep SanitizeReport
	kept := s.Data[:0]
	seen := make(map[string]int, len(s.Data))
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
		key := d.Point.String()
		if at, dup := seen[key]; dup {
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
		seen[key] = len(kept)
		kept = append(kept, d)
	}
	s.Data = kept
	return rep
}

func cloneSet(s *Set) *Set {
	c := &Set{ParamNames: s.ParamNames}
	for _, d := range s.Data {
		c.Data = append(c.Data, Measurement{Point: d.Point.Clone(), Values: append([]float64(nil), d.Values...)})
	}
	return c
}

// randomKeySet draws a set whose points repeat often. With artifacts, it
// also holds NaN, infinite, zero and negative coordinates and values, empty
// value lists and points of another arity.
func randomKeySet(rng *rand.Rand, artifacts bool) *Set {
	coords := []float64{1, 2, 10, 0.5, 1e6, 2.5e-5, 123456789}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -3}
	m := 1 + rng.Intn(3)
	s := &Set{}
	for i := 2 + rng.Intn(12); i > 0; i-- {
		arity := m
		if artifacts && rng.Intn(15) == 0 {
			arity = m + 1
		}
		pt := make(Point, arity)
		for l := range pt {
			pt[l] = coords[rng.Intn(3)]
			if rng.Intn(4) == 0 {
				pt[l] = coords[rng.Intn(len(coords))]
			}
			if artifacts && rng.Intn(20) == 0 {
				pt[l] = bad[rng.Intn(len(bad))]
			}
		}
		n := rng.Intn(4)
		if !artifacts && n == 0 {
			n = 1
		}
		vals := make([]float64, n)
		for r := range vals {
			vals[r] = 1 + rng.Float64()
			if rng.Intn(8) == 0 {
				vals[r] = -vals[r] // non-positive values are valid
			}
			if artifacts && rng.Intn(8) == 0 {
				vals[r] = bad[rng.Intn(len(bad))]
			}
		}
		s.Data = append(s.Data, Measurement{Point: pt, Values: vals})
	}
	return s
}

func TestValidateMatchesStringKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dups := 0
	for trial := 0; trial < 2000; trial++ {
		s := randomKeySet(rng, false)
		switch d := &s.Data[rng.Intn(len(s.Data))]; rng.Intn(10) {
		case 0:
			d.Values = nil
		case 1:
			d.Point = append(d.Point, 1)
		}
		got, want := s.Validate(), refValidate(s)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: Validate = %v, reference %v", trial, got, want)
		}
		if got != nil && strings.HasPrefix(got.Error(), "duplicate") {
			dups++
		}
	}
	if dups < 500 {
		t.Fatalf("only %d of 2000 sets held a duplicate", dups)
	}
}

func TestSanitizeMatchesStringKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	merged := 0
	for trial := 0; trial < 2000; trial++ {
		s := randomKeySet(rng, true)
		ref := cloneSet(s)
		got, want := s.Sanitize(), refSanitize(ref)
		// Printed, not DeepEqual: the reports hold NaN coordinates.
		if fmt.Sprintf("%+v %+v", got, s) != fmt.Sprintf("%+v %+v", want, ref) {
			t.Fatalf("trial %d: Sanitize = %+v %+v, reference %+v %+v", trial, got, s.Data, want, ref.Data)
		}
		merged += got.MergedPoints
	}
	if merged < 500 {
		t.Fatalf("only %d merges in 2000 sets", merged)
	}
}
