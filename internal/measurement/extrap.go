package measurement

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadExtraPWith parses the Extra-P-style text format, easing interop with
// campaigns prepared for the original tool:
//
//	PARAMETER p
//	PARAMETER size
//
//	POINTS ( 8 1024 ) ( 16 1024 ) ( 32 1024 )
//
//	REGION solver
//	METRIC time
//	DATA 1.20 1.25 1.22
//	DATA 2.43 2.51 2.47
//	DATA 4.90 4.85 4.95
//
// PARAMETER lines name the parameters; POINTS enumerates the measurement
// points in parentheses (single-parameter campaigns may omit them:
// "POINTS 8 16 32"); each DATA line holds the repetitions of one point, in
// POINTS order. REGION and METRIC are optional labels; only the first
// region's data is read (use internal/profile for multi-kernel campaigns).
// The parsed set is sanitized (see Set.Sanitize) unless cfg turns that off,
// and validated.
func ReadExtraPWith(r io.Reader, cfg ReadConfig) (*Set, error) {
	scanner := bufio.NewScanner(r)
	set := &Set{}
	var points []Point
	dataIdx := 0
	seenRegions := 0
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		keyword := strings.ToUpper(fields[0])
		rest := strings.TrimSpace(line[len(fields[0]):])
		switch keyword {
		case "PARAMETER":
			if rest == "" {
				return nil, fmt.Errorf("measurement: line %d: PARAMETER needs a name", lineNo)
			}
			set.ParamNames = append(set.ParamNames, rest)
		case "POINTS":
			pts, err := parseExtraPPoints(rest, len(set.ParamNames), lineNo)
			if err != nil {
				return nil, err
			}
			points = pts
		case "REGION":
			seenRegions++
			if seenRegions > 1 {
				// Only the first region is read; stop before its data mixes in.
				goto done
			}
		case "METRIC":
			set.Metric = rest
		case "DATA":
			if points == nil {
				return nil, fmt.Errorf("measurement: line %d: DATA before POINTS", lineNo)
			}
			if dataIdx >= len(points) {
				return nil, fmt.Errorf("measurement: line %d: more DATA lines than points (%d)", lineNo, len(points))
			}
			var vals []float64
			for _, f := range strings.Fields(rest) {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return nil, fmt.Errorf("measurement: line %d: bad value %q: %w", lineNo, f, err)
				}
				vals = append(vals, v)
			}
			if len(vals) == 0 {
				return nil, fmt.Errorf("measurement: line %d: empty DATA line", lineNo)
			}
			set.Data = append(set.Data, Measurement{Point: points[dataIdx], Values: vals})
			dataIdx++
		default:
			return nil, fmt.Errorf("measurement: line %d: unknown keyword %q", lineNo, fields[0])
		}
	}
done:
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("measurement: read: %w", err)
	}
	if dataIdx != len(points) {
		return nil, fmt.Errorf("measurement: %d DATA lines for %d points", dataIdx, len(points))
	}
	return finishRead(set, cfg)
}

// parseExtraPPoints parses "( 8 1024 ) ( 16 1024 )" or, for one parameter,
// "8 16 32".
func parseExtraPPoints(s string, numParams int, lineNo int) ([]Point, error) {
	if numParams == 0 {
		return nil, fmt.Errorf("measurement: line %d: POINTS before any PARAMETER", lineNo)
	}
	var points []Point
	if !strings.Contains(s, "(") {
		// Bare value list: single-parameter form.
		if numParams != 1 {
			return nil, fmt.Errorf("measurement: line %d: unparenthesized POINTS need exactly 1 parameter, have %d", lineNo, numParams)
		}
		for _, f := range strings.Fields(s) {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("measurement: line %d: bad point %q: %w", lineNo, f, err)
			}
			points = append(points, Point{v})
		}
		return points, nil
	}
	rest := s
	for {
		open := strings.IndexByte(rest, '(')
		if open < 0 {
			break
		}
		closing := strings.IndexByte(rest[open:], ')')
		if closing < 0 {
			return nil, fmt.Errorf("measurement: line %d: unbalanced parentheses in POINTS", lineNo)
		}
		inner := rest[open+1 : open+closing]
		rest = rest[open+closing+1:]
		var p Point
		for _, f := range strings.Fields(inner) {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("measurement: line %d: bad coordinate %q: %w", lineNo, f, err)
			}
			p = append(p, v)
		}
		if len(p) != numParams {
			return nil, fmt.Errorf("measurement: line %d: point has %d coordinates, want %d", lineNo, len(p), numParams)
		}
		points = append(points, p)
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("measurement: line %d: POINTS holds no points", lineNo)
	}
	return points, nil
}
