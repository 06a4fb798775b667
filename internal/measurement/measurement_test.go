package measurement

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func sampleSet() *Set {
	return &Set{
		ParamNames: []string{"p", "n"},
		Metric:     "runtime",
		Data: []Measurement{
			{Point: Point{8, 10}, Values: []float64{1.0, 1.2, 1.1}},
			{Point: Point{16, 10}, Values: []float64{2.0, 2.2}},
			{Point: Point{32, 10}, Values: []float64{4.1}},
			{Point: Point{8, 20}, Values: []float64{2.5, 2.4}},
		},
	}
}

func TestPointString(t *testing.T) {
	if got := (Point{8, 64}).String(); got != "P(8, 64)" {
		t.Fatalf("String = %q", got)
	}
}

func TestPointEqualClone(t *testing.T) {
	p := Point{1, 2}
	c := p.Clone()
	if !p.Equal(c) {
		t.Fatal("clone should be equal")
	}
	c[0] = 9
	if p[0] != 1 {
		t.Fatal("clone shares storage")
	}
	if p.Equal(Point{1}) || p.Equal(Point{1, 3}) {
		t.Fatal("Equal false positives")
	}
}

func TestMeasurementMedian(t *testing.T) {
	m := Measurement{Point: Point{1}, Values: []float64{3, 1, 2}}
	v, err := m.Median()
	if err != nil || v != 2 {
		t.Fatalf("Median = %v, %v", v, err)
	}
	if _, err := (Measurement{Point: Point{1}}).Median(); err == nil {
		t.Fatal("empty measurement should error")
	}
}

func TestValidateOK(t *testing.T) {
	if err := sampleSet().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]*Set{
		"empty":      {},
		"zero param": {Data: []Measurement{{Point: Point{}, Values: []float64{1}}}},
		"mixed arity": {Data: []Measurement{
			{Point: Point{1}, Values: []float64{1}},
			{Point: Point{1, 2}, Values: []float64{1}},
		}},
		"nonpositive": {Data: []Measurement{{Point: Point{0}, Values: []float64{1}}}},
		"no values":   {Data: []Measurement{{Point: Point{2}}}},
		"duplicate": {Data: []Measurement{
			{Point: Point{2}, Values: []float64{1}},
			{Point: Point{2}, Values: []float64{2}},
		}},
	}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestMedians(t *testing.T) {
	pts, vals := sampleSet().Medians()
	if len(pts) != 4 || len(vals) != 4 {
		t.Fatalf("got %d/%d entries", len(pts), len(vals))
	}
	if vals[0] != 1.1 {
		t.Fatalf("median of first point = %v, want 1.1", vals[0])
	}
	if vals[1] != 2.1 {
		t.Fatalf("median of second point = %v, want 2.1", vals[1])
	}
}

func TestRepetitions(t *testing.T) {
	if sampleSet().Repetitions() != 3 {
		t.Fatal("Repetitions should report the max")
	}
}

func TestNumParamsEmptySet(t *testing.T) {
	s := &Set{ParamNames: []string{"a", "b", "c"}}
	if s.NumParams() != 3 {
		t.Fatal("NumParams should fall back to ParamNames")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := sampleSet()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumParams() != 2 || len(got.Data) != 4 || got.Metric != "runtime" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if !got.Data[2].Point.Equal(Point{32, 10}) {
		t.Fatal("points corrupted")
	}
}

func TestReadJSONInvalid(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{")); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := ReadJSON(strings.NewReader(`{"data":[]}`)); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestReadTextWithHeader(t *testing.T) {
	input := `
# a comment
# params: p size
8 32 1.25 1.31 1.27
16 32 2.43 2.51
32 32 4.8
64 32 9.2 9.4
128 32 18.0
`
	s, err := ReadText(strings.NewReader(input), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumParams() != 2 || len(s.Data) != 5 {
		t.Fatalf("parsed %d params / %d rows", s.NumParams(), len(s.Data))
	}
	if s.ParamNames[0] != "p" || s.ParamNames[1] != "size" {
		t.Fatalf("param names = %v", s.ParamNames)
	}
	med, _ := s.Data[0].Median()
	if math.Abs(med-1.27) > 1e-12 {
		t.Fatalf("median = %v", med)
	}
}

func TestReadTextExplicitParams(t *testing.T) {
	s, err := ReadText(strings.NewReader("4 1.5\n8 2.5\n"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumParams() != 1 || len(s.Data) != 2 {
		t.Fatalf("bad parse: %+v", s)
	}
}

func TestReadTextErrors(t *testing.T) {
	if _, err := ReadText(strings.NewReader("1 2 3\n"), 0); err == nil {
		t.Fatal("unknown param count should fail")
	}
	if _, err := ReadText(strings.NewReader("8\n"), 1); err == nil {
		t.Fatal("missing value column should fail")
	}
	if _, err := ReadText(strings.NewReader("8 abc\n"), 1); err == nil {
		t.Fatal("bad number should fail")
	}
	if _, err := ReadText(strings.NewReader("-8 1.0\n"), 1); err == nil {
		t.Fatal("negative parameter should fail validation")
	}
}

// TestReadFormat checks the -format dispatcher: each named format reaches its
// reader with the caller's parameter count and sanitization control, and an
// unknown name is an error.
func TestReadFormat(t *testing.T) {
	var jsonSet bytes.Buffer
	if err := sampleSet().WriteJSON(&jsonSet); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		format, input      string
		params, wantParams int
		wantPoints         int
	}{
		{"text", "4 1.5 1.6\n8 2.5\n8 2.6\n", 1, 1, 2},
		{"json", jsonSet.String(), 0, 2, 4},
		{"extrap", extrapTwoParam, 0, 2, 5},
	}
	for _, c := range cases {
		s, err := ReadFormat(strings.NewReader(c.input), c.format, c.params, ReadConfig{})
		if err != nil {
			t.Fatalf("%s: %v", c.format, err)
		}
		if s.NumParams() != c.wantParams || len(s.Data) != c.wantPoints {
			t.Errorf("%s: %d params / %d points, want %d / %d",
				c.format, s.NumParams(), len(s.Data), c.wantParams, c.wantPoints)
		}
	}
	// The text case's duplicate point is merged by default and rejected with
	// sanitization off, so the config reaches the reader.
	if _, err := ReadFormat(strings.NewReader(cases[0].input), "text", 1, ReadConfig{NoSanitize: true}); err == nil {
		t.Error("text with NoSanitize: duplicate point accepted")
	}
	if _, err := ReadFormat(strings.NewReader(cases[0].input), "csv", 1, ReadConfig{}); err == nil ||
		!strings.Contains(err.Error(), `unknown format "csv"`) {
		t.Errorf("unknown format: err = %v", err)
	}
}
