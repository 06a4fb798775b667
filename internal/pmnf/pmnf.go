// Package pmnf implements the performance model normal form (PMNF) of
// Extra-P: performance functions are sums of terms, each a product of
// per-parameter factors x^i * log2(x)^j with exponents drawn from a fixed
// set E of complexity classes found in real applications (Eq. 1 and 2 of the
// paper). The 43 admissible (i, j) pairs double as the classes predicted by
// the DNN modeler.
package pmnf

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Exponents is one admissible (i, j) pair: the polynomial exponent I and the
// log2 exponent J of a factor x^I * log2(x)^J.
type Exponents struct {
	I float64 // polynomial exponent
	J float64 // log2 exponent (integer-valued: 0, 1 or 2)
}

// IsConstant reports whether the factor is the constant 1 (i = j = 0).
func (e Exponents) IsConstant() bool { return e.I == 0 && e.J == 0 }

// Eval returns x^I * log2(x)^J. It requires x > 0; x values in performance
// experiments are parameter values such as process counts and problem sizes,
// which are always positive. For x values where log2(x) < 0 (x < 1) the log
// factor is still evaluated as defined.
func (e Exponents) Eval(x float64) float64 {
	v := math.Pow(x, e.I)
	if e.J != 0 {
		v *= math.Pow(math.Log2(x), e.J)
	}
	return v
}

// exponent value sets from Eq. 2 of the paper.
var (
	polyFull   = []float64{0, 1.0 / 4, 1.0 / 3, 1.0 / 2, 2.0 / 3, 3.0 / 4, 1, 3.0 / 2, 2, 5.0 / 2}
	polyLog1   = []float64{5.0 / 4, 4.0 / 3, 3}
	polyLog0   = []float64{4.0 / 5, 5.0 / 3, 7.0 / 4, 9.0 / 4, 7.0 / 3, 8.0 / 3, 11.0 / 4}
	allClasses []Exponents
)

func init() {
	for _, i := range polyFull {
		for _, j := range []float64{0, 1, 2} {
			allClasses = append(allClasses, Exponents{i, j})
		}
	}
	for _, i := range polyLog1 {
		for _, j := range []float64{0, 1} {
			allClasses = append(allClasses, Exponents{i, j})
		}
	}
	for _, i := range polyLog0 {
		allClasses = append(allClasses, Exponents{i, 0})
	}
	sort.Slice(allClasses, func(a, b int) bool {
		if allClasses[a].I != allClasses[b].I {
			return allClasses[a].I < allClasses[b].I
		}
		return allClasses[a].J < allClasses[b].J
	})
}

// NumClasses is the number of admissible exponent combinations, which is also
// the width of the DNN's softmax output layer.
const NumClasses = 43

// Classes returns the 43 admissible exponent pairs in a fixed deterministic
// order (ascending by I, then J). The caller must not modify the result.
func Classes() []Exponents { return allClasses }

// Class returns the exponent pair for class index idx.
// It panics if idx is out of range.
func Class(idx int) Exponents {
	if idx < 0 || idx >= len(allClasses) {
		panic(fmt.Sprintf("pmnf: class index %d out of range [0,%d)", idx, len(allClasses)))
	}
	return allClasses[idx]
}

// Distance returns the scalar distance between two exponent pairs used by
// the model-accuracy buckets (d <= 1/4, 1/3, 1/2): the absolute difference
// of the polynomial exponents. The bucket thresholds are exactly the
// spacings of adjacent polynomial exponents in E, and a log2 factor changes
// asymptotic growth less than any polynomial step, so log exponents do not
// enter the distance — e.g. x^(4/3) is at distance 1/3 from x*log2(x)^2,
// mirroring how the paper scores the RELeARN model's log2(x1)-for-x1
// confusion as a minor inaccuracy.
func Distance(a, b Exponents) float64 {
	return math.Abs(a.I - b.I)
}

// fractionNames maps the exact exponent values of E to display fractions.
var fractionNames = map[float64]string{}

func init() {
	add := func(num, den int) {
		v := float64(num) / float64(den)
		if den == 1 {
			fractionNames[v] = fmt.Sprintf("%d", num)
		} else {
			fractionNames[v] = fmt.Sprintf("%d/%d", num, den)
		}
	}
	add(0, 1)
	add(1, 4)
	add(1, 3)
	add(1, 2)
	add(2, 3)
	add(3, 4)
	add(4, 5)
	add(1, 1)
	add(5, 4)
	add(4, 3)
	add(3, 2)
	add(5, 3)
	add(7, 4)
	add(2, 1)
	add(9, 4)
	add(7, 3)
	add(5, 2)
	add(8, 3)
	add(11, 4)
	add(3, 1)
}

// ExponentString renders an exponent value, preferring the exact fraction
// form ("1/3") for members of E and falling back to a decimal rendering.
func ExponentString(v float64) string {
	for val, name := range fractionNames {
		if math.Abs(val-v) < 1e-9 {
			return name
		}
	}
	return fmt.Sprintf("%g", v)
}

// FactorString renders the factor of e applied to the variable name,
// e.g. "x^(1/3)*log2(x)^2". A constant factor renders as "1".
func (e Exponents) FactorString(variable string) string {
	if e.IsConstant() {
		return "1"
	}
	var parts []string
	switch {
	case e.I == 1:
		parts = append(parts, variable)
	case e.I != 0:
		parts = append(parts, fmt.Sprintf("%s^(%s)", variable, ExponentString(e.I)))
	}
	switch {
	case e.J == 1:
		parts = append(parts, fmt.Sprintf("log2(%s)", variable))
	case e.J != 0:
		parts = append(parts, fmt.Sprintf("log2(%s)^%s", variable, ExponentString(e.J)))
	}
	return strings.Join(parts, "*")
}
