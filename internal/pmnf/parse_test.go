package pmnf

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseKripkeModel(t *testing.T) {
	m, err := Parse("8.51 + 0.11*x1^(1/3)*x2*x3^(4/5)")
	if err != nil {
		t.Fatal(err)
	}
	if m.Constant != 8.51 || len(m.Terms) != 1 || m.NumParams() != 3 {
		t.Fatalf("parsed %+v", m)
	}
	term := m.Terms[0]
	if term.Coefficient != 0.11 {
		t.Fatalf("coefficient %v", term.Coefficient)
	}
	if math.Abs(term.Exps[0].I-1.0/3) > 1e-12 || term.Exps[1].I != 1 ||
		math.Abs(term.Exps[2].I-0.8) > 1e-12 {
		t.Fatalf("exponents %+v", term.Exps)
	}
	got := m.Eval([]float64{8, 2, 32})
	want := 8.51 + 0.11*2*2*math.Pow(32, 0.8)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Eval = %v, want %v", got, want)
	}
}

func TestParseRELeARNModel(t *testing.T) {
	m, err := Parse("-2216.41 + 325.71*log2(x1) + 0.01*x2*log2(x2)^2")
	if err != nil {
		t.Fatal(err)
	}
	if m.Constant != -2216.41 || len(m.Terms) != 2 || m.NumParams() != 2 {
		t.Fatalf("parsed %+v", m)
	}
	if m.Terms[0].Exps[0] != (Exponents{0, 1}) {
		t.Fatalf("first term exps %+v", m.Terms[0].Exps)
	}
	if m.Terms[1].Exps[1] != (Exponents{1, 2}) {
		t.Fatalf("second term exps %+v", m.Terms[1].Exps)
	}
}

func TestParseVariants(t *testing.T) {
	cases := map[string]func(Model) bool{
		"42":              func(m Model) bool { return m.Constant == 42 && len(m.Terms) == 0 },
		"-3.5":            func(m Model) bool { return m.Constant == -3.5 },
		"2*x1":            func(m Model) bool { return m.Constant == 0 && m.Terms[0].Coefficient == 2 },
		"x1":              func(m Model) bool { return m.Terms[0].Coefficient == 1 && m.Terms[0].Exps[0].I == 1 },
		"x1^2":            func(m Model) bool { return m.Terms[0].Exps[0].I == 2 },
		"x1^0.5":          func(m Model) bool { return m.Terms[0].Exps[0].I == 0.5 },
		"log2(x1)":        func(m Model) bool { return m.Terms[0].Exps[0] == Exponents{0, 1} },
		"log2(x2)^2":      func(m Model) bool { return m.Terms[0].Exps[1] == Exponents{0, 2} },
		"1 + 2*x1 - 3*x1": func(m Model) bool { return len(m.Terms) == 2 && m.Terms[1].Coefficient == -3 },
		"x1*x1":           func(m Model) bool { return m.Terms[0].Exps[0].I == 2 }, // factors accumulate
		"1.5e2":           func(m Model) bool { return m.Constant == 150 },
		"2e-3":            func(m Model) bool { return m.Constant == 0.002 },
	}
	for in, check := range cases {
		m, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if !check(m) {
			t.Errorf("Parse(%q) = %+v fails check", in, m)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"", "+", "2 +", "2 ^ 3", "x", "x0", "xa", "log2(x1", "log2()", "2**x1",
		"x1^", "x1^(1/0)", "x1^(1", "2 2", "x1 x2",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// Property: String → Parse round-trips the model semantics (evaluations
// agree) for models with default parameter names.
func TestParseStringRoundTrip(t *testing.T) {
	checkRoundTrip(t, nil)
}

// Property: String → ParseNamed round-trips models whose parameters carry
// display names, one of them a prefix of another.
func TestParseNamedRoundTrip(t *testing.T) {
	checkRoundTrip(t, []string{"p", "procs", "size"})
}

// checkRoundTrip checks the String → Parse property on random models
// printed with the given names (nil keeps x1..xm).
func checkRoundTrip(t *testing.T, names []string) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(rng)
		if names != nil {
			m.ParamNames = names[:m.NumParams()]
		}
		parsed, err := ParseNamed(m.String(), m.ParamNames)
		if err != nil {
			return false
		}
		for trial := 0; trial < 5; trial++ {
			x := make([]float64, m.NumParams())
			for l := range x {
				x[l] = 2 + rng.Float64()*1000
			}
			// Printing drops parameters that appear in no term, so the
			// parsed model may have fewer (trailing) parameters; they do
			// not affect the value.
			a, b := m.Eval(x), parsed.Eval(x[:parsed.NumParams()])
			// String renders coefficients with %.4g; near a cancellation
			// the result can be far smaller than its components, so the
			// tolerance must scale with the component magnitudes.
			scale := math.Abs(m.Constant)
			for _, term := range m.Terms {
				scale += math.Abs(term.Eval(x))
			}
			if math.Abs(a-b) > 2e-3*scale+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func randomModel(rng *rand.Rand) Model {
	numParams := 1 + rng.Intn(3)
	m := Model{Constant: rng.Float64()*100 - 50}
	numTerms := 1 + rng.Intn(2)
	for k := 0; k < numTerms; k++ {
		t := Term{Coefficient: rng.Float64()*10 + 0.1, Exps: make([]Exponents, numParams)}
		nonConst := false
		for l := range t.Exps {
			if rng.Intn(2) == 0 {
				t.Exps[l] = Class(rng.Intn(NumClasses))
				if !t.Exps[l].IsConstant() {
					nonConst = true
				}
			}
		}
		if !nonConst {
			t.Exps[0] = Exponents{I: 1}
		}
		m.Terms = append(m.Terms, t)
	}
	return m
}

// Property: JSON marshal/unmarshal round-trips exactly.
func TestModelJSONRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomModel(rng)
		data, err := json.Marshal(m)
		if err != nil {
			return false
		}
		var back Model
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		if back.Constant != m.Constant || len(back.Terms) != len(m.Terms) {
			return false
		}
		for k := range m.Terms {
			if back.Terms[k].Coefficient != m.Terms[k].Coefficient {
				return false
			}
			for l := range m.Terms[k].Exps {
				if back.Terms[k].Exps[l] != m.Terms[k].Exps[l] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestModelJSONIncludesRendered(t *testing.T) {
	m := Model{Constant: 1, Terms: []Term{{Coefficient: 2, Exps: []Exponents{{1, 0}}}}}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if raw["rendered"] != "1 + 2*x1" {
		t.Fatalf("rendered = %v", raw["rendered"])
	}
}

func TestModelJSONRejectsRaggedTerms(t *testing.T) {
	bad := `{"constant":1,"terms":[
		{"coefficient":1,"exponents":[{"i":1,"j":0}]},
		{"coefficient":2,"exponents":[{"i":1,"j":0},{"i":0,"j":1}]}]}`
	var m Model
	if err := json.Unmarshal([]byte(bad), &m); err == nil {
		t.Fatal("ragged terms should be rejected")
	}
}
