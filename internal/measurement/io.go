package measurement

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteJSON writes the set as indented JSON.
func (s *Set) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadJSON parses a set from JSON, sanitizes it (see Set.Sanitize) and
// validates it.
func ReadJSON(r io.Reader) (*Set, error) {
	return ReadJSONWith(r, ReadConfig{})
}

// ReadJSONWith is ReadJSON with explicit sanitization control.
func ReadJSONWith(r io.Reader, cfg ReadConfig) (*Set, error) {
	var s Set
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("measurement: decode: %w", err)
	}
	return finishRead(&s, cfg)
}

// ReadFormat reads a set in the named input format ("text", "json" or
// "extrap", the -format flag of the CLI tools); numParams applies to the
// text format only (see ReadText).
func ReadFormat(r io.Reader, format string, numParams int, cfg ReadConfig) (*Set, error) {
	switch format {
	case "text":
		return ReadTextWith(r, numParams, cfg)
	case "json":
		return ReadJSONWith(r, cfg)
	case "extrap":
		return ReadExtraPWith(r, cfg)
	}
	return nil, fmt.Errorf("unknown format %q (want text, json or extrap)", format)
}

// ReadText parses the whitespace-separated text format:
//
//	# comment lines and blank lines are ignored
//	# an optional header names the parameters:
//	# params: p size
//	8 32 1.25 1.31 1.27
//	16 32 2.43 2.51
//
// Each data line holds the m parameter values followed by one or more
// repetition values. The parameter count m is taken from the header when
// present; otherwise every line must carry exactly numParams coordinates.
// The parsed set is sanitized (see Set.Sanitize) and validated.
func ReadText(r io.Reader, numParams int) (*Set, error) {
	return ReadTextWith(r, numParams, ReadConfig{})
}

// ReadTextWith is ReadText with explicit sanitization control.
func ReadTextWith(r io.Reader, numParams int, cfg ReadConfig) (*Set, error) {
	scanner := bufio.NewScanner(r)
	set := &Set{}
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "# params:"); ok {
				set.ParamNames = strings.Fields(rest)
				numParams = len(set.ParamNames)
			}
			continue
		}
		fields := strings.Fields(line)
		if numParams <= 0 {
			return nil, fmt.Errorf("measurement: line %d: parameter count unknown (no header and numParams<=0)", lineNo)
		}
		if len(fields) < numParams+1 {
			return nil, fmt.Errorf("measurement: line %d: need %d coordinates plus at least one value, got %d fields", lineNo, numParams, len(fields))
		}
		vals := make([]float64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("measurement: line %d: bad number %q: %w", lineNo, f, err)
			}
			vals[i] = v
		}
		set.Data = append(set.Data, Measurement{
			Point:  Point(vals[:numParams]),
			Values: vals[numParams:],
		})
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("measurement: read: %w", err)
	}
	return finishRead(set, cfg)
}
