package measurement

import (
	"math"
	"strings"
	"testing"
)

func TestSanitizeCleanSetUntouched(t *testing.T) {
	s := &Set{Data: []Measurement{
		{Point: Point{4}, Values: []float64{1.0, 1.1}},
		{Point: Point{8}, Values: []float64{2.0}},
	}}
	rep := s.Sanitize()
	if !rep.Clean() || rep.String() != "clean" {
		t.Fatalf("clean set reported issues: %+v", rep)
	}
	if len(s.Data) != 2 || len(s.Data[0].Values) != 2 {
		t.Fatalf("clean set mutated: %+v", s.Data)
	}
}

func TestSanitizeDropsBadCoordinates(t *testing.T) {
	s := &Set{Data: []Measurement{
		{Point: Point{math.NaN()}, Values: []float64{1}},
		{Point: Point{-8}, Values: []float64{1}},
		{Point: Point{math.Inf(1)}, Values: []float64{1}},
		{Point: Point{0}, Values: []float64{1}},
		{Point: Point{16}, Values: []float64{2}},
	}}
	rep := s.Sanitize()
	if rep.DroppedPoints != 4 || len(s.Data) != 1 || s.Data[0].Point[0] != 16 {
		t.Fatalf("report %+v, data %+v", rep, s.Data)
	}
	if len(rep.Issues) != 4 {
		t.Fatalf("issues = %+v", rep.Issues)
	}
}

func TestSanitizeFiltersBadValues(t *testing.T) {
	s := &Set{Data: []Measurement{
		{Point: Point{4}, Values: []float64{1.0, math.NaN(), -2, math.Inf(-1), 0, 1.2}},
		{Point: Point{8}, Values: []float64{math.NaN()}},
	}}
	rep := s.Sanitize()
	if rep.DroppedValues != 4+1 {
		t.Fatalf("DroppedValues = %d, want 5", rep.DroppedValues)
	}
	if rep.DroppedPoints != 1 {
		t.Fatalf("DroppedPoints = %d, want 1 (all values bad)", rep.DroppedPoints)
	}
	if len(s.Data) != 1 || len(s.Data[0].Values) != 2 {
		t.Fatalf("data = %+v", s.Data)
	}
	if s.Data[0].Values[0] != 1.0 || s.Data[0].Values[1] != 1.2 {
		t.Fatalf("surviving values reordered: %v", s.Data[0].Values)
	}
}

func TestSanitizeMergesDuplicatePoints(t *testing.T) {
	s := &Set{Data: []Measurement{
		{Point: Point{4}, Values: []float64{1.0}},
		{Point: Point{8}, Values: []float64{2.0}},
		{Point: Point{4}, Values: []float64{1.1, math.NaN()}},
	}}
	rep := s.Sanitize()
	if rep.MergedPoints != 1 || rep.DroppedValues != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if len(s.Data) != 2 {
		t.Fatalf("data = %+v", s.Data)
	}
	if got := s.Data[0].Values; len(got) != 2 || got[0] != 1.0 || got[1] != 1.1 {
		t.Fatalf("merged values = %v", got)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("sanitized set must validate: %v", err)
	}
}

func TestReadTextSanitizesByDefault(t *testing.T) {
	input := "4 1.5 NaN\n8 2.5\n8 2.6\n-2 9.9\n"
	var rep SanitizeReport
	s, err := ReadTextWith(strings.NewReader(input), 1, ReadConfig{Report: &rep})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Data) != 2 {
		t.Fatalf("data = %+v", s.Data)
	}
	if rep.DroppedValues != 1 || rep.MergedPoints != 1 || rep.DroppedPoints != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if got := s.Data[1].Values; len(got) != 2 {
		t.Fatalf("duplicate point not merged: %v", got)
	}
}

func TestReadTextNoSanitizeSurfacesErrors(t *testing.T) {
	if _, err := ReadTextWith(strings.NewReader("8 2.5\n8 2.6\n"), 1, ReadConfig{NoSanitize: true}); err == nil {
		t.Fatal("duplicate point must fail with sanitization off")
	}
	if _, err := ReadTextWith(strings.NewReader("-8 1.0\n"), 1, ReadConfig{NoSanitize: true}); err == nil {
		t.Fatal("negative coordinate must fail with sanitization off")
	}
}

func TestReadJSONSanitizes(t *testing.T) {
	// NaN is not valid JSON, so bad values arrive as nonpositive runtimes.
	input := `{"data":[
		{"point":[4],"values":[1.0,-1.0]},
		{"point":[8],"values":[2.0]},
		{"point":[8],"values":[2.1]}
	]}`
	var rep SanitizeReport
	s, err := ReadJSONWith(strings.NewReader(input), ReadConfig{Report: &rep})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Data) != 2 || rep.DroppedValues != 1 || rep.MergedPoints != 1 {
		t.Fatalf("data = %+v, report = %+v", s.Data, rep)
	}
}

func TestReadExtraPSanitizes(t *testing.T) {
	input := `
PARAMETER p
POINTS 4 8 8 16 32
DATA 1.0 NaN
DATA 2.0
DATA 2.1
DATA 4.0
DATA 8.0
`
	var rep SanitizeReport
	s, err := ReadExtraPWith(strings.NewReader(input), ReadConfig{Report: &rep})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Data) != 4 || rep.MergedPoints != 1 || rep.DroppedValues != 1 {
		t.Fatalf("data = %+v, report = %+v", s.Data, rep)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSanitizeEmptyAfterwardsStillFailsValidation pins the reader contract:
// sanitization never turns invalid input into a silent empty success.
func TestSanitizeEmptyAfterwardsStillFailsValidation(t *testing.T) {
	if _, err := ReadText(strings.NewReader("-8 1.0\n"), 1); err == nil {
		t.Fatal("set that sanitizes to empty must still fail validation")
	}
}

func TestValidateRejectsNonFinite(t *testing.T) {
	const tail = "2 2\n4 3\n8 4\n16 5\n32 6\n"
	for _, in := range []string{"NaN 1\n", "+Inf 1\n", "3 NaN\n", "3 +Inf\n", "3 -Inf\n", "3 1 NaN\n"} {
		if _, err := ReadTextWith(strings.NewReader(in+tail), 1, ReadConfig{NoSanitize: true}); err == nil {
			t.Errorf("%q: accepted without sanitizing", in)
		}
		set, err := ReadTextWith(strings.NewReader(in+tail), 1, ReadConfig{})
		if err != nil || len(set.Data) < 5 {
			t.Errorf("%q: sanitized read = %v, %v", in, set, err)
		}
	}
	// Non-positive values stay valid: only the sanitizer drops them.
	if _, err := ReadTextWith(strings.NewReader("3 -1 0\n"+tail), 1, ReadConfig{NoSanitize: true}); err != nil {
		t.Errorf("non-positive values rejected: %v", err)
	}
}
