package profile

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"extrapdnn/internal/measurement"
)

// scanAll drains a scanner into a slice, failing the test on scan errors.
func scanAll(t *testing.T, s *Scanner) []Entry {
	t.Helper()
	var out []Entry
	for s.Scan() {
		e := s.Entry()
		// Entry is only valid until the next Scan; deep-copy the set pointer
		// is enough here because the scanner allocates a fresh set per entry.
		out = append(out, e)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestScannerArrayFormatMatchesRead(t *testing.T) {
	p := validProfile()
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	want, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScanner(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if s.Application() != "demo" || !reflect.DeepEqual(s.ParamNames(), []string{"p"}) {
		t.Fatalf("header = %q %v", s.Application(), s.ParamNames())
	}
	got := scanAll(t, s)
	if !reflect.DeepEqual(got, want.Entries) {
		t.Fatalf("scanned entries differ from Read:\n got %+v\nwant %+v", got, want.Entries)
	}
	if s.Count() != 3 || s.NumParams() != 1 {
		t.Fatalf("Count = %d, NumParams = %d", s.Count(), s.NumParams())
	}
}

func TestScannerJSONLRoundTrip(t *testing.T) {
	p := validProfile()
	var buf bytes.Buffer
	if err := p.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	// JSONL is line-oriented: header plus one line per entry.
	if lines := strings.Count(buf.String(), "\n"); lines != 1+len(p.Entries) {
		t.Fatalf("JSONL has %d lines, want %d", lines, 1+len(p.Entries))
	}
	s, err := NewScanner(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Application() != p.Application || !reflect.DeepEqual(s.ParamNames(), p.ParamNames) {
		t.Fatalf("header = %q %v", s.Application(), s.ParamNames())
	}
	got := scanAll(t, s)
	if !reflect.DeepEqual(got, p.Entries) {
		t.Fatalf("JSONL round trip differs:\n got %+v\nwant %+v", got, p.Entries)
	}
}

func TestWriterIncremental(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "demo", []string{"p"})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range validProfile().Entries {
		before := buf.Len()
		if err := w.WriteEntry(e); err != nil {
			t.Fatal(err)
		}
		if buf.Len() <= before {
			t.Fatalf("entry %d: nothing written", i)
		}
	}
	if w.Count() != 3 {
		t.Fatalf("Count = %d", w.Count())
	}
	if _, err := NewWriter(io.Discard, "", nil); err == nil {
		t.Fatal("empty application must fail")
	}
	if err := w.WriteEntry(Entry{Metric: "runtime"}); err == nil {
		t.Fatal("entry without kernel must fail")
	}
	if err := w.WriteEntry(Entry{Kernel: "k"}); err == nil {
		t.Fatal("entry without measurements must fail")
	}
}

func TestScannerErrorPaths(t *testing.T) {
	const entry = `{"kernel":"solver","metric":"runtime","measurements":{"data":[` +
		`{"point":[1],"values":[1,1.1]},{"point":[2],"values":[2,2.2]},` +
		`{"point":[3],"values":[3,3.3]},{"point":[4],"values":[4,4.4]},` +
		`{"point":[5],"values":[5,5.5]}]}}`
	cases := map[string]struct {
		input   string
		errPart string
	}{
		"not an object":   {`[1,2]`, "header"},
		"no application":  {`{"param_names":["p"]}` + "\n" + entry, "application"},
		"empty jsonl":     {`{"application":"demo"}`, "no entries"},
		"empty array":     {`{"application":"demo","entries":[]}`, "no entries"},
		"malformed entry": {`{"application":"demo"}` + "\n" + `{"kernel":`, "decode"},
		"truncated array": {`{"application":"demo","entries":[` + entry, "decode"},
		"no kernel name":  {`{"application":"demo"}` + "\n" + `{"metric":"runtime"}`, "no kernel name"},
		"no measurements": {`{"application":"demo"}` + "\n" + `{"kernel":"solver"}`, "no measurements"},
		"duplicate":       {`{"application":"demo"}` + "\n" + entry + "\n" + entry, "duplicate"},
		"mixed arity": {`{"application":"demo"}` + "\n" + entry + "\n" +
			`{"kernel":"k2","measurements":{"data":[{"point":[1,1],"values":[1]},{"point":[2,2],"values":[2]},{"point":[3,3],"values":[3]},{"point":[4,4],"values":[4]},{"point":[5,5],"values":[5]}]}}`,
			"parameters"},
	}
	for name, tc := range cases {
		s, err := NewScannerWith(strings.NewReader(tc.input), ReadOptions{})
		if err == nil {
			for s.Scan() {
			}
			err = s.Err()
		}
		if err == nil {
			t.Errorf("%s: scanner accepted bad input", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.errPart) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.errPart)
		}
	}
}

func TestScannerSanitizeThreading(t *testing.T) {
	dirty := validSet()
	// A duplicated point (merged logs) is the artifact: Sanitize merges it,
	// NoSanitize lets Validate reject it.
	dirty.Data = append(dirty.Data, measurement.Measurement{
		Point: measurement.Point{1}, Values: []float64{1.05},
	})
	p := &Profile{Application: "demo", ParamNames: []string{"p"},
		Entries: []Entry{{Kernel: "k", Metric: "runtime", Set: dirty}}}
	var buf bytes.Buffer
	if err := p.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	var sanitized []string
	s, err := NewScannerWith(bytes.NewReader(data), ReadOptions{
		OnSanitize: func(e *Entry, rep measurement.SanitizeReport) {
			sanitized = append(sanitized, e.Kernel+": "+rep.String())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, s)
	if len(got) != 1 {
		t.Fatalf("got %d entries", len(got))
	}
	if len(sanitized) != 1 || !strings.Contains(sanitized[0], "k:") {
		t.Fatalf("OnSanitize calls = %v, want one for kernel k", sanitized)
	}
	if d := got[0].Set.Data; len(d) != 5 || len(d[0].Values) != 3 {
		t.Fatalf("duplicate point not merged: %d points, first has values %v", len(d), d[0].Values)
	}

	// -no-sanitize semantics: the artifact surfaces as a validation error.
	s, err = NewScannerWith(bytes.NewReader(data), ReadOptions{
		Read: measurement.ReadConfig{NoSanitize: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for s.Scan() {
	}
	if s.Err() == nil {
		t.Fatal("NoSanitize must surface the duplicate point as a validation error")
	}

	// The legacy array format gets the same default repair.
	var legacy bytes.Buffer
	if err := p.Write(&legacy); err != nil {
		t.Fatal(err)
	}
	s, err = NewScannerWith(&legacy, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := scanAll(t, s)[0].Set.Data; len(d) != 5 || len(d[0].Values) != 3 {
		t.Fatalf("array format not sanitized: %d points", len(d))
	}
}

func TestScannerNextEntrySource(t *testing.T) {
	var buf bytes.Buffer
	if err := validProfile().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := NewScanner(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for {
		_, err := s.NextEntry()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("NextEntry yielded %d entries", n)
	}
	if _, err := s.NextEntry(); err != io.EOF {
		t.Fatalf("NextEntry after EOF = %v", err)
	}
}

func TestEntriesAndFilter(t *testing.T) {
	src := Entries(validProfile().Entries)
	kept := Filter(src, func(e Entry) bool { return e.Kernel == "solver" })
	var n int
	for {
		e, err := kept.NextEntry()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if e.Kernel != "solver" {
			t.Fatalf("filter leaked %q", e.Kernel)
		}
		n++
	}
	if n != 2 || kept.Skipped() != 1 {
		t.Fatalf("kept %d, skipped %d", n, kept.Skipped())
	}
}

// bigCampaign builds a legacy-array-format campaign large enough that
// materializing it dwarfs single-entry retention. The array format lets the
// same bytes feed both Read (the baseline) and the Scanner.
func bigCampaign(entries, points, reps int) []byte {
	var buf bytes.Buffer
	buf.WriteString(`{"application":"big","param_names":["p"],"entries":[`)
	for i := 0; i < entries; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, `{"kernel":"k%d","metric":"runtime","measurements":{"data":[`, i)
		for j := 0; j < points; j++ {
			if j > 0 {
				buf.WriteByte(',')
			}
			fmt.Fprintf(&buf, `{"point":[%d],"values":[`, j+1)
			for r := 0; r < reps; r++ {
				if r > 0 {
					buf.WriteByte(',')
				}
				fmt.Fprintf(&buf, "%d.%d", j+1, r)
			}
			buf.WriteString("]}")
		}
		buf.WriteString("]}}")
	}
	buf.WriteString("]}")
	return buf.Bytes()
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestScannerBoundedMemory is the streaming-memory gate: scanning a campaign
// end to end must retain far less than materializing it with Read. It pins
// the tentpole property that campaign memory is O(1) in the campaign size.
func TestScannerBoundedMemory(t *testing.T) {
	data := bigCampaign(400, 60, 10)

	// Materialized baseline: hold the whole decoded profile.
	before := liveHeap()
	prof, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	readRetained := int64(liveHeap()) - int64(before)
	if prof.Entries[0].Kernel != "k0" {
		t.Fatal("bad fixture")
	}
	prof = nil
	_ = prof

	// Streaming: scan through, retaining nothing but counters.
	before = liveHeap()
	s, err := NewScanner(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for s.Scan() {
		n++
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	scanRetained := int64(liveHeap()) - int64(before)
	if n != 400 {
		t.Fatalf("scanned %d entries", n)
	}
	runtime.KeepAlive(s)

	t.Logf("400-kernel campaign: Read retained %d bytes, Scanner retained %d bytes", readRetained, scanRetained)
	if readRetained < 1<<20 {
		t.Fatalf("fixture too small to discriminate: Read retained only %d bytes", readRetained)
	}
	if scanRetained > readRetained/4 {
		t.Fatalf("scanner retained %d bytes, want < 1/4 of Read's %d — streaming memory is not bounded",
			scanRetained, readRetained)
	}
}

// FuzzScanProfile hardens the streaming decoder against arbitrary input: it
// must never panic, and whatever it accepts must satisfy the same invariants
// Profile.Validate enforces.
func FuzzScanProfile(f *testing.F) {
	var legacy, jsonl bytes.Buffer
	p := validProfile()
	if err := p.Write(&legacy); err != nil {
		f.Fatal(err)
	}
	if err := p.WriteJSONL(&jsonl); err != nil {
		f.Fatal(err)
	}
	f.Add(legacy.String())
	f.Add(jsonl.String())
	f.Add(`{"application":"a"}` + "\n" + `{"kernel":"k","measurements":{"data":[{"point":[1],"values":[2]}]}}`)
	f.Add(`{"entries":[{}]}`)
	f.Add(`{`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, input string) {
		s, err := NewScanner(strings.NewReader(input))
		if err != nil {
			return
		}
		if s.Application() == "" {
			t.Fatal("scanner accepted a header without application name")
		}
		seen := map[string]bool{}
		for s.Scan() {
			e := s.Entry()
			if e.Kernel == "" || e.Set == nil {
				t.Fatalf("accepted invalid entry %+v", e)
			}
			if err := e.Set.Validate(); err != nil {
				t.Fatalf("accepted invalid set: %v", err)
			}
			key := e.Kernel + "\x00" + e.Metric
			if seen[key] {
				t.Fatalf("accepted duplicate entry %q", key)
			}
			seen[key] = true
		}
		if s.Err() == nil && s.Count() == 0 {
			t.Fatal("clean end of stream with zero entries")
		}
	})
}
