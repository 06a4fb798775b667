package profile

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"extrapdnn/internal/measurement"
)

func validSet() *measurement.Set {
	s := &measurement.Set{}
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Data = append(s.Data, measurement.Measurement{
			Point:  measurement.Point{x},
			Values: []float64{x, x * 1.1},
		})
	}
	return s
}

func validProfile() *Profile {
	return &Profile{
		Application: "demo",
		ParamNames:  []string{"p"},
		Entries: []Entry{
			{Kernel: "solver", Metric: "runtime", RuntimeShare: 0.8, Set: validSet()},
			{Kernel: "io", Metric: "runtime", RuntimeShare: 0.005, Set: validSet()},
			{Kernel: "solver", Metric: "flops", Set: validSet()},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := validProfile().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]func(*Profile){
		"no app":    func(p *Profile) { p.Application = "" },
		"no entry":  func(p *Profile) { p.Entries = nil },
		"no kernel": func(p *Profile) { p.Entries[0].Kernel = "" },
		"nil set":   func(p *Profile) { p.Entries[0].Set = nil },
		"bad set":   func(p *Profile) { p.Entries[0].Set = &measurement.Set{} },
		"duplicate": func(p *Profile) { p.Entries[2] = p.Entries[0] },
		"mixed arity": func(p *Profile) {
			s := &measurement.Set{}
			for _, x := range []float64{1, 2, 3, 4, 5} {
				s.Data = append(s.Data, measurement.Measurement{
					Point:  measurement.Point{x, x},
					Values: []float64{1},
				})
			}
			p.Entries[1].Set = s
		},
	}
	for name, mutate := range cases {
		p := validProfile()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestKernels(t *testing.T) {
	ks := validProfile().Kernels()
	if len(ks) != 2 || ks[0] != "io" || ks[1] != "solver" {
		t.Fatalf("Kernels = %v", ks)
	}
}

func TestNumParams(t *testing.T) {
	if validProfile().NumParams() != 1 {
		t.Fatal("NumParams wrong")
	}
	empty := &Profile{ParamNames: []string{"a", "b"}}
	if empty.NumParams() != 2 {
		t.Fatal("NumParams fallback wrong")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	p := validProfile()
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Application != "demo" || len(got.Entries) != 3 {
		t.Fatalf("round trip = %+v", got)
	}
	if got.Entries[0].RuntimeShare != 0.8 {
		t.Fatal("runtime share lost")
	}
}

// TestReadBothFormats loads one profile from the array format and from the
// JSONL stream format, with one dirty entry: both decode to the same
// profile and report the same repair. An array file may also name its
// application after the entries, which the Scanner rejects.
func TestReadBothFormats(t *testing.T) {
	p := validProfile()
	p.Entries[1].Set.Data = append(p.Entries[1].Set.Data, measurement.Measurement{
		Point: measurement.Point{1}, Values: []float64{1.05},
	})
	var array, jsonl bytes.Buffer
	if err := p.Write(&array); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	read := func(name string, data []byte) (*Profile, []string) {
		t.Helper()
		var repairs []string
		got, err := ReadWith(bytes.NewReader(data), ReadOptions{
			OnSanitize: func(e *Entry, rep measurement.SanitizeReport) {
				repairs = append(repairs, e.Kernel+": "+rep.String())
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return got, repairs
	}
	fromArray, arrayRepairs := read("array", array.Bytes())
	fromJSONL, jsonlRepairs := read("jsonl", jsonl.Bytes())
	if !reflect.DeepEqual(fromArray, fromJSONL) || !reflect.DeepEqual(arrayRepairs, jsonlRepairs) {
		t.Fatalf("array %+v %v and JSONL %+v %v differ", fromArray, arrayRepairs, fromJSONL, jsonlRepairs)
	}
	if len(fromJSONL.Entries) != 3 || fromJSONL.Application != "demo" || len(jsonlRepairs) != 1 {
		t.Fatalf("JSONL read = %+v, repairs %v", fromJSONL, jsonlRepairs)
	}
	if _, err := ReadWith(bytes.NewReader(jsonl.Bytes()), ReadOptions{Read: measurement.ReadConfig{NoSanitize: true}}); err == nil {
		t.Fatal("NoSanitize must surface the duplicate point in a JSONL profile")
	}

	entries, err := json.Marshal(validProfile().Entries)
	if err != nil {
		t.Fatal(err)
	}
	late := `{"entries":` + string(entries) + `,"application":"demo"}`
	got, err := Read(strings.NewReader(late))
	if err != nil || got.Application != "demo" || len(got.Entries) != 3 {
		t.Fatalf("application after entries: %+v, %v", got, err)
	}
	if _, err := NewScanner(strings.NewReader(late)); err == nil {
		t.Fatal("the Scanner needs the application before the entries")
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader("{")); err == nil {
		t.Fatal("bad JSON should fail")
	}
	if _, err := Read(strings.NewReader(`{"application":""}`)); err == nil {
		t.Fatal("invalid profile should fail")
	}
}

// TestReadErrorPaths exercises Read against the malformed inputs the
// profile-scale pipeline must reject before any modeling starts.
func TestReadErrorPaths(t *testing.T) {
	const entry = `{"kernel":"solver","metric":"runtime","measurements":{"data":[` +
		`{"point":[1],"values":[1,1.1]},{"point":[2],"values":[2,2.2]},` +
		`{"point":[3],"values":[3,3.3]},{"point":[4],"values":[4,4.4]},` +
		`{"point":[5],"values":[5,5.5]}]}}`
	cases := map[string]struct {
		input   string
		errPart string
	}{
		"malformed JSON": {
			input:   `{"application":"demo","entries":[` + entry + `,]}`,
			errPart: "decode",
		},
		"truncated JSON": {
			input:   `{"application":"demo","entries":[` + entry,
			errPart: "decode",
		},
		"empty entries": {
			input:   `{"application":"demo","entries":[]}`,
			errPart: "no entries",
		},
		"duplicate kernel/metric pair": {
			input:   `{"application":"demo","entries":[` + entry + `,` + entry + `]}`,
			errPart: "duplicate",
		},
		"entry without measurements": {
			input:   `{"application":"demo","entries":[{"kernel":"solver","metric":"runtime"}]}`,
			errPart: "no measurements",
		},
	}
	for name, tc := range cases {
		_, err := Read(strings.NewReader(tc.input))
		if err == nil {
			t.Errorf("%s: Read accepted bad input", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.errPart) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.errPart)
		}
	}
}
