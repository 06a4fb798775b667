package regression

// SelectLines must choose the same lines as the code it replaced: refSelectLines
// below is that original code (SelectLines and relativeSpan), retained
// verbatim as the executable specification apart from the names. The new
// code groups points by the Float64bits of their fixed coordinates, reads
// medians taken once per point and builds the "%g," tie-break text once per
// group; a change of grouping, of tie order or of the values a line carries
// shows up here.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"extrapdnn/internal/measurement"
	"extrapdnn/internal/stats"
)

// refRelativeSpan returns (max-min)/|mean| of a group's median values, a cheap
// signal-strength score for line selection.
func refRelativeSpan(g []measurement.Measurement) float64 {
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

// refSelectLines finds, for every parameter, the longest single-parameter
// measurement line in the set (ties broken deterministically by the fixed
// coordinates). Both modelers use these lines to identify per-parameter
// behavior before combining. An error is returned when some parameter has no
// line with at least MinPointsPerParameter points.
func refSelectLines(set *measurement.Set) ([]Line, error) {
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
			span := refRelativeSpan(g)
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

// checkSelectLines pins SelectLines to refSelectLines on one set, and
// Prepare's values to one stats.Median per point.
func checkSelectLines(t *testing.T, name string, set *measurement.Set) {
	t.Helper()
	got, gotErr := SelectLines(set)
	want, wantErr := refSelectLines(set)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: err = %v, reference err = %v", name, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: lines %v differ from reference %v", name, got, want)
	}
	if gotErr != nil {
		return
	}
	p, err := Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range set.Data {
		if math.Float64bits(p.Values[i]) != math.Float64bits(stats.Median(d.Values)) {
			t.Fatalf("%s: point %v has value %v, median %v", name, d.Point, p.Values[i], stats.Median(d.Values))
		}
	}
}

// lineTestValues mixes coordinates whose "%g" text orders differently from
// their numeric order (2 vs 10, 1e+06 vs 5) and that print in exponent form.
var lineTestValues = []float64{1, 2, 3, 4, 5, 8, 10, 16, 20, 32, 64, 100, 128, 1000, 1e6, 2.5e-5, 0.5, 123456789}

// randomLineSet draws a set of m parameters: a full grid, a grid with
// points missing, or one line per parameter through a common center. With
// constant set, every point measures the same values, so every line of a
// given length ties on its span.
func randomLineSet(rng *rand.Rand, m int, constant bool) *measurement.Set {
	axes := make([][]float64, m)
	for l := range axes {
		perm := rng.Perm(len(lineTestValues))
		for _, i := range perm[:4+rng.Intn(3)] {
			axes[l] = append(axes[l], lineTestValues[i])
		}
	}
	reps := 1 + rng.Intn(5)
	value := func(pt measurement.Point) []float64 {
		vals := make([]float64, reps)
		for r := range vals {
			if constant {
				vals[r] = 7
				continue
			}
			v := 3.0
			for _, x := range pt {
				v += math.Sqrt(x) * (0.5 + rng.Float64())
			}
			vals[r] = v
		}
		return vals
	}
	set := &measurement.Set{}
	layout := rng.Intn(3)
	if layout == 2 {
		center := make(measurement.Point, m)
		for l := range center {
			center[l] = axes[l][rng.Intn(len(axes[l]))]
		}
		set.Data = append(set.Data, measurement.Measurement{Point: center, Values: value(center)})
		for l := range axes {
			for _, x := range axes[l] {
				if x == center[l] {
					continue
				}
				pt := center.Clone()
				pt[l] = x
				set.Data = append(set.Data, measurement.Measurement{Point: pt, Values: value(pt)})
			}
		}
		return set
	}
	var grid func(l int, pt measurement.Point)
	grid = func(l int, pt measurement.Point) {
		if l == m {
			if layout == 0 || rng.Intn(4) > 0 {
				p := pt.Clone()
				set.Data = append(set.Data, measurement.Measurement{Point: p, Values: value(p)})
			}
			return
		}
		for _, x := range axes[l] {
			grid(l+1, append(pt, x))
		}
	}
	grid(0, nil)
	rng.Shuffle(len(set.Data), func(i, j int) { set.Data[i], set.Data[j] = set.Data[j], set.Data[i] })
	return set
}

func TestSelectLinesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		m := 1 + trial%3
		constant := trial%4 == 0
		set := randomLineSet(rng, m, constant)
		if err := set.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkSelectLines(t, fmt.Sprintf("trial %d (m=%d, constant %v)", trial, m, constant), set)
	}

	// Equal-length constant x-lines at y = 2 and y = 10 tie on their zero
	// span; the "%g," text "10," sorts before "2,", so the line at y = 10
	// wins, though 2 < 10. The y-line runs at x = 1 and, equally constant,
	// ties with none.
	tie := &measurement.Set{}
	for _, y := range []float64{2, 10} {
		for x := 1.0; x <= 5; x++ {
			tie.Data = append(tie.Data, measurement.Measurement{Point: measurement.Point{x, y}, Values: []float64{4, 4}})
		}
	}
	for _, y := range []float64{3, 4, 5} {
		tie.Data = append(tie.Data, measurement.Measurement{Point: measurement.Point{1, y}, Values: []float64{4, 4}})
	}
	checkSelectLines(t, "constant tie 2 vs 10", tie)
	lines, err := SelectLines(tie)
	if err != nil {
		t.Fatal(err)
	}
	if lines[0].Fixed[1] != 10 {
		t.Fatalf("x-line at y = %g, want the text-first y = 10", lines[0].Fixed[1])
	}

	// The same tie in three parameters, on the second fixed coordinate.
	tie3 := &measurement.Set{}
	for _, z := range []float64{2, 10} {
		for x := 1.0; x <= 5; x++ {
			tie3.Data = append(tie3.Data, measurement.Measurement{Point: measurement.Point{x, 1, z}, Values: []float64{9}})
		}
	}
	for y := 2.0; y <= 5; y++ {
		tie3.Data = append(tie3.Data, measurement.Measurement{Point: measurement.Point{1, y, 2}, Values: []float64{9}})
	}
	for _, z := range []float64{3, 4, 5} {
		tie3.Data = append(tie3.Data, measurement.Measurement{Point: measurement.Point{1, 1, z}, Values: []float64{9}})
	}
	checkSelectLines(t, "constant tie m=3", tie3)
}
