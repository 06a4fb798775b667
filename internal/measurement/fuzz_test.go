package measurement

import (
	"bytes"
	"strings"
	"testing"
)

// The fuzz targets pin the reader robustness contract: arbitrary input never
// panics, and any set a reader accepts is valid, survives a JSON round-trip,
// and is idempotent under re-sanitization.

func checkAccepted(t *testing.T, s *Set) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatalf("reader accepted an invalid set: %v", err)
	}
	if rep := s.Sanitize(); !rep.Clean() {
		t.Fatalf("accepted set not idempotent under Sanitize: %+v", rep)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatalf("accepted set failed to serialize: %v", err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("accepted set failed to round-trip: %v", err)
	}
	if len(back.Data) != len(s.Data) {
		t.Fatalf("round-trip changed size: %d -> %d", len(s.Data), len(back.Data))
	}
}

func FuzzReadText(f *testing.F) {
	f.Add("4 1.5\n8 2.5\n", 1)
	f.Add("# params: p size\n8 32 1.25 1.31\n16 32 2.43\n", 0)
	f.Add("4 1.5 NaN\n8 2.5\n8 2.6\n-2 9.9\n", 1)
	f.Add("8 abc\n", 1)
	f.Add("", 3)
	f.Fuzz(func(t *testing.T, input string, numParams int) {
		s, err := ReadText(strings.NewReader(input), numParams%8)
		if err != nil {
			return
		}
		checkAccepted(t, s)
	})
}

func FuzzReadJSON(f *testing.F) {
	f.Add([]byte(`{"data":[{"point":[4],"values":[1.0]},{"point":[8],"values":[2.0]}]}`))
	f.Add([]byte(`{"param_names":["p"],"metric":"runtime","data":[{"point":[4],"values":[1.0,-1.0]}]}`))
	f.Add([]byte(`{"data":[]}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, input []byte) {
		s, err := ReadJSON(bytes.NewReader(input))
		if err != nil {
			return
		}
		checkAccepted(t, s)
	})
}

func FuzzReadExtraP(f *testing.F) {
	f.Add([]byte("PARAMETER p\nPOINTS 4 8 16\nDATA 1.0\nDATA 2.0\nDATA 4.0\n"))
	f.Add([]byte("PARAMETER p\nPARAMETER size\n\nPOINTS ( 8 1024 ) ( 16 1024 )\n\nREGION solver\nMETRIC time\nDATA 1.20 1.25\nDATA 2.43 2.51\n"))
	f.Add([]byte("PARAMETER p\nPOINTS 4 8 8\nDATA 1.0 NaN\nDATA 2.0\nDATA 2.1\n"))
	f.Add([]byte("DATA 1.0\n"))
	f.Fuzz(func(t *testing.T, input []byte) {
		s, err := ReadExtraPWith(bytes.NewReader(input), ReadConfig{})
		if err != nil {
			return
		}
		checkAccepted(t, s)
	})
}
