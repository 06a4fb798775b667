package regression

import (
	"fmt"
	"sort"

	"extrapdnn/internal/measurement"
)

// Line is a single-parameter measurement line: the values of one parameter
// with every other parameter held fixed, plus the median measured values.
type Line struct {
	Param int
	Xs    []float64
	Vs    []float64
	Fixed measurement.Point // the fixed values of the other parameters
}

// relativeSpan returns (max-min)/|mean| of a group's median values, a cheap
// signal-strength score for line selection.
func relativeSpan(g []measurement.Measurement) float64 {
	lo, hi, sum := 0.0, 0.0, 0.0
	for i, d := range g {
		v, err := d.Median()
		if err != nil {
			return 0
		}
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
		sum += v
	}
	mean := sum / float64(len(g))
	if mean == 0 {
		return 0
	}
	span := (hi - lo) / mean
	if span < 0 {
		return -span
	}
	return span
}

// SelectLines finds, for every parameter, the longest single-parameter
// measurement line in the set (ties broken deterministically by the fixed
// coordinates). Both modelers use these lines to identify per-parameter
// behavior before combining. An error is returned when some parameter has no
// line with at least MinPointsPerParameter points.
func SelectLines(set *measurement.Set) ([]Line, error) {
	m := set.NumParams()
	lines := make([]Line, m)
	for l := 0; l < m; l++ {
		groups := map[string][]measurement.Measurement{}
		keys := map[string]measurement.Point{}
		for _, d := range set.Data {
			key := ""
			for k := 0; k < m; k++ {
				if k == l {
					continue
				}
				key += fmt.Sprintf("%g,", d.Point[k])
			}
			groups[key] = append(groups[key], d)
			keys[key] = d.Point
		}
		// Prefer the longest line; among equally long lines prefer the one
		// with the largest relative variation of its median values (the
		// strongest signal for identifying the parameter's effect), then
		// the smallest fixed coordinates' key. The span tolerance is not
		// transitive, so the groups are visited in key order, not map order.
		order := make([]string, 0, len(groups))
		for key := range groups {
			order = append(order, key)
		}
		sort.Strings(order)
		bestKey := ""
		bestSpan := -1.0
		for _, key := range order {
			g := groups[key]
			if bestKey != "" && len(g) < len(groups[bestKey]) {
				continue
			}
			span := relativeSpan(g)
			if bestKey == "" || len(g) > len(groups[bestKey]) || span > bestSpan+1e-12 {
				bestKey, bestSpan = key, span
			}
		}
		g := groups[bestKey]
		if len(g) < measurement.MinPointsPerParameter {
			return nil, fmt.Errorf("regression: parameter %d has only %d points on its longest line, need %d",
				l, len(g), measurement.MinPointsPerParameter)
		}
		sort.Slice(g, func(a, b int) bool { return g[a].Point[l] < g[b].Point[l] })
		line := Line{Param: l, Fixed: keys[bestKey].Clone()}
		for _, d := range g {
			v, err := d.Median()
			if err != nil {
				return nil, err
			}
			line.Xs = append(line.Xs, d.Point[l])
			line.Vs = append(line.Vs, v)
		}
		lines[l] = line
	}
	return lines, nil
}
