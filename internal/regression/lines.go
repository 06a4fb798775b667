package regression

import (
	"fmt"
	"math"
	"sort"
	"strconv"

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

// Prepared is the per-set analysis both modelers read from: the set's
// points, each point's median value (taken once) and the selected line of
// every parameter. Build it with Prepare.
type Prepared struct {
	Set    *measurement.Set
	Points []measurement.Point
	Values []float64 // median value per point
	Lines  []Line
}

// Prepare reduces a valid set (see measurement.Set.Validate) once: it takes
// every point's median and selects every parameter's line, failing when a
// parameter has no line of at least MinPointsPerParameter points.
func Prepare(set *measurement.Set) (*Prepared, error) {
	p := &Prepared{Set: set, Lines: make([]Line, set.NumParams())}
	p.Points, p.Values = set.Medians()
	if err := p.selectLines(); err != nil {
		return nil, err
	}
	return p, nil
}

// SelectLines finds, for every parameter, the longest single-parameter
// measurement line in a valid set (ties broken deterministically by the
// fixed coordinates). It is Prepare's line selection.
func SelectLines(set *measurement.Set) ([]Line, error) {
	p, err := Prepare(set)
	if err != nil {
		return nil, err
	}
	return p.Lines, nil
}

// lineGroup summarizes, in point order, the points that share the fixed
// coordinates of one candidate line.
type lineGroup struct {
	key, text   string  // Float64bits key and "%g," text of the fixed coordinates
	n, last     int     // point count, last point index
	lo, hi, sum float64 // of the median values
}

// selectLines picks, for every parameter, the longest group of points that
// agree in all other coordinates as that parameter's line.
func (p *Prepared) selectLines() error {
	ids := make(map[string]int)
	var groups []lineGroup
	var key, text []byte
	for l := range p.Lines {
		clear(ids)
		groups = groups[:0]
		for i, pt := range p.Points {
			key = pt.AppendKey(key[:0], l)
			id, ok := ids[string(key)]
			if !ok {
				// The tie-break compares the fixed coordinates' "%g," text,
				// built once per group (strconv's shortest 'g' is fmt's %g).
				text = text[:0]
				for k, x := range pt {
					if k != l {
						text = append(strconv.AppendFloat(text, x, 'g', -1, 64), ',')
					}
				}
				id = len(groups)
				groups = append(groups, lineGroup{key: string(key), text: string(text)})
				ids[groups[id].key] = id
			}
			g, v := &groups[id], p.Values[i]
			if g.n == 0 || v < g.lo {
				g.lo = v
			}
			if g.n == 0 || v > g.hi {
				g.hi = v
			}
			g.sum += v
			g.n++
			g.last = i
		}
		sort.Slice(groups, func(a, b int) bool { return groups[a].text < groups[b].text })
		// Prefer the longest line; among equally long lines prefer the one
		// with the largest relative span (max-min)/|mean| of its medians (the
		// strongest signal of the parameter's effect), then the smallest
		// fixed coordinates' text. The span tolerance is not transitive, so
		// the groups are visited in text order.
		best, bestSpan := -1, -1.0
		for id, g := range groups {
			if best >= 0 && g.n < groups[best].n {
				continue
			}
			span := 0.0
			if mean := g.sum / float64(g.n); mean != 0 {
				span = math.Abs((g.hi - g.lo) / mean)
			}
			if best < 0 || g.n > groups[best].n || span > bestSpan+1e-12 {
				best, bestSpan = id, span
			}
		}
		g := groups[best]
		if g.n < measurement.MinPointsPerParameter {
			return fmt.Errorf("regression: parameter %d has only %d points on its longest line, need %d",
				l, g.n, measurement.MinPointsPerParameter)
		}
		members := make([]int, 0, g.n)
		for i := 0; i <= g.last; i++ {
			if key = p.Points[i].AppendKey(key[:0], l); string(key) == g.key {
				members = append(members, i)
			}
		}
		sort.Slice(members, func(a, b int) bool { return p.Points[members[a]][l] < p.Points[members[b]][l] })
		line := Line{Param: l, Fixed: p.Points[g.last].Clone(), Xs: make([]float64, g.n), Vs: make([]float64, g.n)}
		for j, i := range members {
			line.Xs[j], line.Vs[j] = p.Points[i][l], p.Values[i]
		}
		p.Lines[l] = line
	}
	return nil
}
