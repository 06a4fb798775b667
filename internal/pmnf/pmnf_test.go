package pmnf

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// admissible reports whether e is one of the classes, within a tolerance
// that lets values reconstructed through float arithmetic still resolve.
func admissible(e Exponents) bool {
	for _, c := range Classes() {
		if math.Abs(c.I-e.I) < 1e-9 && math.Abs(c.J-e.J) < 1e-9 {
			return true
		}
	}
	return false
}

// single is the model c0 + c1*x_l^I*log2(x_l)^J in an m-parameter space.
func single(c0, c1 float64, e Exponents, l, m int) Model {
	exps := make([]Exponents, m)
	exps[l] = e
	return Model{Constant: c0, Terms: []Term{{Coefficient: c1, Exps: exps}}}
}

func TestClassCountIs43(t *testing.T) {
	if len(Classes()) != NumClasses {
		t.Fatalf("got %d classes, want %d", len(Classes()), NumClasses)
	}
}

func TestClassesMatchEquation2(t *testing.T) {
	// Count classes per log exponent: j=0 should have 10+3+7=20 members,
	// j=1 has 10+3=13, j=2 has 10.
	counts := map[float64]int{}
	for _, c := range Classes() {
		counts[c.J]++
	}
	if counts[0] != 20 || counts[1] != 13 || counts[2] != 10 {
		t.Fatalf("per-j counts = %v, want 20/13/10", counts)
	}
}

func TestClassesContainKeyPairs(t *testing.T) {
	for _, want := range []Exponents{
		{0, 0}, {1, 0}, {1, 2}, {1.0 / 3, 0}, {4.0 / 5, 0}, {3, 1}, {11.0 / 4, 0}, {5.0 / 2, 2},
	} {
		if !admissible(want) {
			t.Errorf("expected class %+v to be admissible", want)
		}
	}
	// Pairs excluded by Eq. 2.
	for _, bad := range []Exponents{
		{4.0 / 5, 1}, {3, 2}, {11.0 / 4, 1}, {8, 0}, {0.9, 0},
	} {
		if admissible(bad) {
			t.Errorf("class %+v should not be admissible", bad)
		}
	}
}

func TestClassesSortedAndUnique(t *testing.T) {
	cs := Classes()
	for i := 1; i < len(cs); i++ {
		a, b := cs[i-1], cs[i]
		if a.I > b.I || (a.I == b.I && a.J >= b.J) {
			t.Fatalf("classes not strictly sorted at %d: %+v, %+v", i, a, b)
		}
	}
}

func TestClassRoundTrip(t *testing.T) {
	for idx, c := range Classes() {
		if Class(idx) != c {
			t.Fatalf("Class(%d) mismatch", idx)
		}
	}
}

func TestClassOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Class(43) did not panic")
		}
	}()
	Class(NumClasses)
}

func TestExponentEval(t *testing.T) {
	e := Exponents{I: 2, J: 1}
	// 8^2 * log2(8) = 64*3 = 192
	if got := e.Eval(8); math.Abs(got-192) > 1e-9 {
		t.Fatalf("Eval(8) = %v, want 192", got)
	}
	c := Exponents{}
	if c.Eval(100) != 1 {
		t.Fatal("constant factor should evaluate to 1")
	}
}

func TestExponentEvalFractional(t *testing.T) {
	e := Exponents{I: 1.0 / 3, J: 0}
	if got := e.Eval(27); math.Abs(got-3) > 1e-9 {
		t.Fatalf("27^(1/3) = %v, want 3", got)
	}
}

func TestDistance(t *testing.T) {
	if Distance(Exponents{1, 0}, Exponents{1, 0}) != 0 {
		t.Fatal("identical exponents should have distance 0")
	}
	if d := Distance(Exponents{1, 0}, Exponents{1.5, 0}); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("poly distance = %v, want 0.5", d)
	}
	if d := Distance(Exponents{1, 0}, Exponents{1, 1}); d != 0 {
		t.Fatalf("log distance = %v, want 0 (log factors do not enter the distance)", d)
	}
	if d := Distance(Exponents{1, 2}, Exponents{4.0 / 3, 0}); math.Abs(d-1.0/3) > 1e-12 {
		t.Fatalf("x*log^2 vs x^(4/3) distance = %v, want 1/3", d)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Class(rng.Intn(NumClasses))
		b := Class(rng.Intn(NumClasses))
		return Distance(a, b) == Distance(b, a) && Distance(a, a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExponentString(t *testing.T) {
	cases := map[float64]string{
		1.0 / 3:  "1/3",
		0.25:     "1/4",
		2:        "2",
		4.0 / 5:  "4/5",
		11.0 / 4: "11/4",
	}
	for v, want := range cases {
		if got := ExponentString(v); got != want {
			t.Errorf("ExponentString(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestFactorString(t *testing.T) {
	if s := (Exponents{}).FactorString("p"); s != "1" {
		t.Errorf("constant factor = %q", s)
	}
	if s := (Exponents{1, 0}).FactorString("p"); s != "p" {
		t.Errorf("linear factor = %q", s)
	}
	if s := (Exponents{0.5, 2}).FactorString("p"); s != "p^(1/2)*log2(p)^2" {
		t.Errorf("factor = %q", s)
	}
	if s := (Exponents{0, 1}).FactorString("p"); s != "log2(p)" {
		t.Errorf("log factor = %q", s)
	}
}

func TestTermEval(t *testing.T) {
	term := Term{Coefficient: 2, Exps: []Exponents{{1, 0}, {0, 1}}}
	// 2 * x1 * log2(x2) at (3, 16) = 2*3*4 = 24
	if got := term.Eval([]float64{3, 16}); math.Abs(got-24) > 1e-9 {
		t.Fatalf("Term.Eval = %v, want 24", got)
	}
}

func TestTermEvalWrongArityPanics(t *testing.T) {
	term := Term{Coefficient: 1, Exps: []Exponents{{1, 0}}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong arity")
		}
	}()
	term.Eval([]float64{1, 2})
}

func TestModelEvalKripkeShape(t *testing.T) {
	// The paper's Kripke model: 8.51 + 0.11 * x1^(1/3) * x2 * x3^(4/5).
	m := Model{
		Constant: 8.51,
		Terms: []Term{{
			Coefficient: 0.11,
			Exps:        []Exponents{{1.0 / 3, 0}, {1, 0}, {4.0 / 5, 0}},
		}},
	}
	got := m.Eval([]float64{8, 2, 32})
	want := 8.51 + 0.11*2*2*math.Pow(32, 0.8)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Eval = %v, want %v", got, want)
	}
	s := m.String()
	if !strings.Contains(s, "x1^(1/3)") || !strings.Contains(s, "x3^(4/5)") {
		t.Fatalf("String = %q, missing factors", s)
	}
}

func TestModelStringNegativeCoefficient(t *testing.T) {
	m := Model{Constant: -2216.41, Terms: []Term{
		{Coefficient: 325.71, Exps: []Exponents{{0, 1}, {0, 0}}},
		{Coefficient: 0.01, Exps: []Exponents{{0, 0}, {1, 2}}},
	}}
	s := m.String()
	if !strings.HasPrefix(s, "-2216") {
		t.Fatalf("String = %q", s)
	}
	if !strings.Contains(s, "log2(x1)") || !strings.Contains(s, "x2*log2(x2)^2") {
		t.Fatalf("String = %q, missing terms", s)
	}
}

func TestLeadExponents(t *testing.T) {
	m := Model{Terms: []Term{
		{Coefficient: 1, Exps: []Exponents{{1, 0}, {0, 0}}},
		{Coefficient: 1, Exps: []Exponents{{2, 1}, {0.5, 0}}},
	}}
	lead := m.LeadExponents()
	if lead[0] != (Exponents{2, 1}) || lead[1] != (Exponents{0.5, 0}) {
		t.Fatalf("lead = %+v", lead)
	}
}

func TestLeadDistanceIdentical(t *testing.T) {
	m := single(1, 2, Exponents{1, 1}, 0, 2)
	if LeadDistance(m, m) != 0 {
		t.Fatal("distance to self must be 0")
	}
}

func TestLeadDistanceMismatchedParams(t *testing.T) {
	a := single(1, 2, Exponents{1, 0}, 0, 1)
	b := single(1, 2, Exponents{1, 0}, 0, 2)
	if !math.IsInf(LeadDistance(a, b), 1) {
		t.Fatal("mismatched parameter counts should give +Inf")
	}
}

func TestConstantModel(t *testing.T) {
	m := Model{Constant: 7, ParamNames: []string{"a", "b"}}
	if m.Eval([]float64{100, 100}) != 7 {
		t.Fatal("constant model should ignore parameters")
	}
	if m.NumParams() != 2 {
		t.Fatalf("NumParams = %d, want 2", m.NumParams())
	}
}

func TestSingleParameterModelEmbedding(t *testing.T) {
	m := single(1, 3, Exponents{1, 0}, 1, 3)
	// f = 1 + 3*x2; x1 and x3 ignored.
	if got := m.Eval([]float64{99, 5, 99}); math.Abs(got-16) > 1e-12 {
		t.Fatalf("Eval = %v, want 16", got)
	}
}

// Property: evaluating a model is linear in its coefficients.
func TestModelEvalLinearInCoefficients(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := Class(rng.Intn(NumClasses))
		x := []float64{2 + rng.Float64()*100}
		a := single(1, 2, e, 0, 1)
		b := single(2, 4, e, 0, 1)
		return math.Abs(2*a.Eval(x)-b.Eval(x)) < 1e-6*math.Abs(b.Eval(x))+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
