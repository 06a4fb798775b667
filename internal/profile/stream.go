// Streaming profile I/O. Campaign files at production scale (100k+ kernels)
// no longer fit comfortably in memory, so the Scanner decodes entries one at
// a time — from the JSONL stream format (one compact header line followed by
// one entry object per line) or, via a token-streaming compatibility path,
// from the legacy single-object JSON array format written by Profile.Write.
// Memory per campaign stays O(1) in the measurement data: only the current
// entry's set is live, plus a small per-entry duplicate-detection key.
package profile

import (
	"encoding/json"
	"fmt"
	"io"

	"extrapdnn/internal/measurement"
)

// ReadOptions tunes a Scanner (NewScannerWith): the measurement-set
// sanitization config shared with the single-set readers, and an optional
// per-entry sanitization callback.
type ReadOptions struct {
	// Read configures the per-entry measurement sanitization exactly like the
	// single-set reader family (measurement.ReadJSONWith etc.): the zero
	// value repairs NaN/Inf/non-positive/duplicate points before validation,
	// NoSanitize surfaces them as validation errors instead. Read.Report is
	// ignored (a profile has many sets); use OnSanitize.
	Read measurement.ReadConfig
	// OnSanitize, when non-nil, is called for every entry whose measurement
	// set was repaired, with the non-clean report. Entries are delivered in
	// input order.
	OnSanitize func(e *Entry, rep measurement.SanitizeReport)
}

// sanitizer returns the per-entry repair pass the options ask for, or nil.
func (o ReadOptions) sanitizer() func(*Entry) {
	if o.Read.NoSanitize {
		return nil
	}
	return func(e *Entry) {
		if rep := e.Set.Sanitize(); !rep.Clean() && o.OnSanitize != nil {
			o.OnSanitize(e, rep)
		}
	}
}

// Source yields profile entries one at a time; NextEntry returns io.EOF
// after the last entry. It is the input contract of the streaming campaign
// pipeline: a Scanner streams entries from disk, Entries adapts an in-memory
// slice, and Filter drops checkpointed entries on resume.
type Source interface {
	NextEntry() (Entry, error)
}

// Scanner decodes a profile entry by entry. It accepts both profile formats:
//
//   - JSONL (written by Writer or appsim -jsonl): a header object
//     {"application":...,"param_names":[...]} followed by one entry object
//     per line (strictly: per concatenated JSON value).
//   - The legacy single-object array format (written by Profile.Write),
//     token-streamed so the entries array is never materialized.
//
// The format is detected from the header object itself: if it contains an
// "entries" key the scanner switches to array mode, otherwise the entries
// follow as concatenated JSON values. Each entry passes Profile.Validate's
// per-entry checks, its set sanitized first as configured.
type Scanner struct {
	dec        *json.Decoder
	app        string
	paramNames []string
	array      bool
	entry      Entry
	count      int
	checker    *entryCheck
	err        error
	done       bool
}

// NewScanner starts scanning a profile stream with default options
// (sanitize, no report callback). The header is parsed eagerly, so
// Application and ParamNames are available before the first Scan.
func NewScanner(r io.Reader) (*Scanner, error) {
	return NewScannerWith(r, ReadOptions{})
}

// NewScannerWith is NewScanner with explicit read options.
func NewScannerWith(r io.Reader, opts ReadOptions) (*Scanner, error) {
	s := &Scanner{
		dec:     json.NewDecoder(r),
		checker: &entryCheck{sanitize: opts.sanitizer(), seen: map[string]bool{}},
	}
	if err := s.readHeader(); err != nil {
		return nil, err
	}
	return s, nil
}

// readHeader consumes the opening object up to (and including) either its
// closing brace (JSONL mode) or the opening bracket of its "entries" array
// (legacy array mode), capturing application and param_names on the way.
// Every profile reader requires those fields to precede the entries, which is
// the order Profile.Write and Writer emit.
func (s *Scanner) readHeader() error {
	tok, err := s.dec.Token()
	if err != nil {
		return fmt.Errorf("profile: decode: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return fmt.Errorf("profile: decode: header must be a JSON object, got %v", tok)
	}
	for !s.array {
		tok, err := s.dec.Token()
		if err != nil {
			return fmt.Errorf("profile: decode header: %w", err)
		}
		if d, ok := tok.(json.Delim); ok && d == '}' {
			break // JSONL: entries follow as concatenated JSON values
		}
		key, _ := tok.(string)
		switch key {
		case "application":
			if err := s.dec.Decode(&s.app); err != nil {
				return fmt.Errorf("profile: decode application: %w", err)
			}
		case "param_names":
			if err := s.dec.Decode(&s.paramNames); err != nil {
				return fmt.Errorf("profile: decode param_names: %w", err)
			}
		case "entries":
			tok, err := s.dec.Token()
			if err != nil {
				return fmt.Errorf("profile: decode entries: %w", err)
			}
			if d, ok := tok.(json.Delim); !ok || d != '[' {
				return fmt.Errorf("profile: decode: entries must be an array, got %v", tok)
			}
			s.array = true
		default:
			var skip json.RawMessage
			if err := s.dec.Decode(&skip); err != nil {
				return fmt.Errorf("profile: decode header field %q: %w", key, err)
			}
		}
	}
	if s.app == "" {
		return fmt.Errorf("profile: application name is empty (it must precede the entries)")
	}
	return nil
}

// Scan advances to the next entry, reporting false at the end of the stream
// or on error (check Err). The entry is available from Entry until the next
// Scan call.
func (s *Scanner) Scan() bool {
	if s.err != nil || s.done {
		return false
	}
	if !s.dec.More() {
		if s.array {
			s.finishArray()
		}
		s.done = true
		if s.count == 0 && s.err == nil {
			s.err = fmt.Errorf("profile: no entries")
		}
		return false
	}
	s.entry = Entry{}
	if err := s.dec.Decode(&s.entry); err != nil {
		s.err = fmt.Errorf("profile: decode entry %d: %w", s.count, err)
		return false
	}
	if err := s.checker.check(s.count, &s.entry); err != nil {
		s.err = err
		return false
	}
	s.count++
	return true
}

// finishArray consumes the closing bracket of the entries array and any
// trailing fields of the enclosing profile object.
func (s *Scanner) finishArray() {
	if _, err := s.dec.Token(); err != nil { // the ']'
		s.err = fmt.Errorf("profile: decode: %w", err)
		return
	}
	for {
		tok, err := s.dec.Token()
		if err != nil {
			s.err = fmt.Errorf("profile: decode: %w", err)
			return
		}
		if d, ok := tok.(json.Delim); ok && d == '}' {
			return
		}
		var skip json.RawMessage
		if err := s.dec.Decode(&skip); err != nil {
			s.err = fmt.Errorf("profile: decode trailing field: %w", err)
			return
		}
	}
}

// Entry returns the current entry (valid until the next Scan call).
func (s *Scanner) Entry() Entry { return s.entry }

// Err returns the first error encountered (nil after a clean end of stream).
func (s *Scanner) Err() error { return s.err }

// Application returns the campaign's application name from the header.
func (s *Scanner) Application() string { return s.app }

// ParamNames returns the header's parameter names (may be nil).
func (s *Scanner) ParamNames() []string { return s.paramNames }

// Count returns the number of entries scanned so far.
func (s *Scanner) Count() int { return s.count }

// NumParams returns the parameter count observed so far (len(ParamNames)
// before the first entry).
func (s *Scanner) NumParams() int {
	if s.checker.numParams > 0 {
		return s.checker.numParams
	}
	return len(s.paramNames)
}

// NextEntry implements Source: it returns the next entry, io.EOF at the end
// of the stream, or the scanner's error.
func (s *Scanner) NextEntry() (Entry, error) {
	if s.Scan() {
		return s.entry, nil
	}
	if err := s.Err(); err != nil {
		return Entry{}, err
	}
	return Entry{}, io.EOF
}

// Entries adapts an in-memory entry slice into a Source. No validation is
// applied; callers stream pre-validated profiles through it.
func Entries(entries []Entry) Source {
	return &sliceSource{entries: entries}
}

type sliceSource struct {
	entries []Entry
	next    int
}

func (s *sliceSource) NextEntry() (Entry, error) {
	if s.next >= len(s.entries) {
		return Entry{}, io.EOF
	}
	e := s.entries[s.next]
	s.next++
	return e, nil
}

// Filtered is a Source that forwards only the entries a predicate keeps,
// counting the drops — the checkpoint-resume path uses it to skip completed
// entries without ever dispatching them.
type Filtered struct {
	src     Source
	keep    func(Entry) bool
	skipped int
}

// Filter wraps src so that only entries with keep(e) == true are yielded.
func Filter(src Source, keep func(Entry) bool) *Filtered {
	return &Filtered{src: src, keep: keep}
}

// NextEntry implements Source.
func (f *Filtered) NextEntry() (Entry, error) {
	for {
		e, err := f.src.NextEntry()
		if err != nil {
			return e, err
		}
		if f.keep(e) {
			return e, nil
		}
		f.skipped++
	}
}

// Skipped returns how many entries the predicate dropped so far.
func (f *Filtered) Skipped() int { return f.skipped }

// jsonlHeader is the first line of the JSONL profile format.
type jsonlHeader struct {
	Application string   `json:"application"`
	ParamNames  []string `json:"param_names,omitempty"`
}

// Writer emits a profile in the streaming JSONL format: one compact header
// line followed by one entry object per line. Scanner reads the result back
// with O(1) memory per campaign; entries are written (and flushed to the
// underlying writer) as they arrive, so a generator never holds more than
// one entry in memory.
type Writer struct {
	enc   *json.Encoder
	count int
}

// NewWriter writes the JSONL header and returns a writer for the entries.
func NewWriter(w io.Writer, application string, paramNames []string) (*Writer, error) {
	if application == "" {
		return nil, fmt.Errorf("profile: application name is empty")
	}
	pw := &Writer{enc: json.NewEncoder(w)}
	if err := pw.enc.Encode(jsonlHeader{Application: application, ParamNames: paramNames}); err != nil {
		return nil, fmt.Errorf("profile: encode header: %w", err)
	}
	return pw, nil
}

// WriteEntry appends one entry line.
func (w *Writer) WriteEntry(e Entry) error {
	if e.Kernel == "" {
		return fmt.Errorf("profile: entry %d has no kernel name", w.count)
	}
	if e.Set == nil {
		return fmt.Errorf("profile: entry %d (%s) has no measurements", w.count, e.Kernel)
	}
	if err := w.enc.Encode(e); err != nil {
		return fmt.Errorf("profile: encode entry %d (%s): %w", w.count, e.Kernel, err)
	}
	w.count++
	return nil
}

// Count returns the number of entries written.
func (w *Writer) Count() int { return w.count }

// WriteJSONL emits the whole profile in the streaming JSONL format — the
// bridge from in-memory profiles to streaming consumers.
func (p *Profile) WriteJSONL(w io.Writer) error {
	pw, err := NewWriter(w, p.Application, p.ParamNames)
	if err != nil {
		return err
	}
	for _, e := range p.Entries {
		if err := pw.WriteEntry(e); err != nil {
			return err
		}
	}
	return nil
}
