package scaling

import (
	"math"
	"strings"
	"testing"

	"extrapdnn/internal/pmnf"
)

// model is 1 + 2*x1^I*log2(x1)^J in a two-parameter space.
func model(e pmnf.Exponents) pmnf.Model {
	return pmnf.Model{Constant: 1, Terms: []pmnf.Term{{Coefficient: 2, Exps: []pmnf.Exponents{e, {}}}}}
}

func TestAnalyzeVerdicts(t *testing.T) {
	cases := []struct {
		e    pmnf.Exponents
		want Verdict
	}{
		{pmnf.Exponents{}, Scalable},
		{pmnf.Exponents{J: 1}, Scalable},
		{pmnf.Exponents{J: 2}, Scalable},
		{pmnf.Exponents{I: 0.25}, Acceptable},
		{pmnf.Exponents{I: 0.5, J: 1}, Acceptable},
		{pmnf.Exponents{I: 1}, Bottleneck},
		{pmnf.Exponents{I: 2}, Bottleneck},
	}
	for _, tc := range cases {
		a, err := Analyze(model(tc.e), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.Verdict != tc.want {
			t.Errorf("%+v: verdict %v, want %v", tc.e, a.Verdict, tc.want)
		}
	}
}

func TestAnalyzeGrowthClass(t *testing.T) {
	a, _ := Analyze(model(pmnf.Exponents{I: 0.5}), 0, nil)
	if a.GrowthClass != "O(p^(1/2))" {
		t.Fatalf("growth class = %q", a.GrowthClass)
	}
	c, _ := Analyze(model(pmnf.Exponents{}), 0, nil)
	if c.GrowthClass != "O(1)" {
		t.Fatalf("constant growth class = %q", c.GrowthClass)
	}
	l, _ := Analyze(model(pmnf.Exponents{J: 2}), 0, nil)
	if !strings.Contains(l.GrowthClass, "log2(p)^2") {
		t.Fatalf("log growth class = %q", l.GrowthClass)
	}
}

func TestAnalyzeDivergence(t *testing.T) {
	expected := pmnf.Exponents{J: 1} // algorithm promises O(log p)
	a, err := Analyze(model(pmnf.Exponents{I: 1}), 0, &expected)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Diverges {
		t.Fatal("linear growth must diverge from a log expectation")
	}
	b, _ := Analyze(model(pmnf.Exponents{J: 1}), 0, &expected)
	if b.Diverges {
		t.Fatal("matching growth should not diverge")
	}
	c, _ := Analyze(model(pmnf.Exponents{}), 0, &expected)
	if c.Diverges {
		t.Fatal("slower growth should not diverge")
	}
	// Log-factor differences are below the method's resolution.
	d, _ := Analyze(model(pmnf.Exponents{J: 2}), 0, &expected)
	if d.Diverges {
		t.Fatal("log-only difference should not count as divergence")
	}
}

func TestAnalyzeSecondParameter(t *testing.T) {
	m := pmnf.Model{Terms: []pmnf.Term{{
		Coefficient: 1,
		Exps:        []pmnf.Exponents{{I: 1}, {I: 0.5}},
	}}}
	a, err := Analyze(m, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Lead.I != 0.5 {
		t.Fatalf("lead = %+v", a.Lead)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(model(pmnf.Exponents{}), 5, nil); err == nil {
		t.Fatal("out-of-range parameter should fail")
	}
}

func TestEfficiencyPerfect(t *testing.T) {
	// Constant runtime = perfect weak scaling.
	m := pmnf.Model{Constant: 10, ParamNames: []string{"p"}}
	eff, err := Efficiency(m, 0, []float64{1, 2, 4, 8}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range eff {
		if math.Abs(e-1) > 1e-12 {
			t.Fatalf("efficiency = %v, want all 1", eff)
		}
	}
}

func TestEfficiencyDegrades(t *testing.T) {
	// Linear growth: efficiency halves per doubling.
	m := pmnf.Model{Terms: []pmnf.Term{{Coefficient: 1, Exps: []pmnf.Exponents{{I: 1}}}}}
	eff, err := Efficiency(m, 0, []float64{2, 4, 8}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eff[1]-0.5) > 1e-12 || math.Abs(eff[2]-0.25) > 1e-12 {
		t.Fatalf("efficiency = %v", eff)
	}
}

func TestEfficiencyErrors(t *testing.T) {
	m := pmnf.Model{Constant: 1, ParamNames: []string{"p"}}
	if _, err := Efficiency(m, 2, []float64{1}, []float64{1}); err == nil {
		t.Fatal("bad parameter index should fail")
	}
	if _, err := Efficiency(m, 0, nil, []float64{1}); err == nil {
		t.Fatal("no process counts should fail")
	}
	if _, err := Efficiency(m, 0, []float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("wrong fixed length should fail")
	}
	neg := pmnf.Model{Constant: -1, ParamNames: []string{"p"}}
	if _, err := Efficiency(neg, 0, []float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("non-positive model should fail")
	}
}

func TestVerdictString(t *testing.T) {
	if Scalable.String() != "scalable" || Bottleneck.String() != "bottleneck" ||
		Acceptable.String() != "acceptable" {
		t.Fatal("verdict names wrong")
	}
	if Verdict(9).String() == "" {
		t.Fatal("unknown verdict should render")
	}
}

func TestAnalyzeAtFiltersNegligibleTerms(t *testing.T) {
	// 40 + 1e-8 * p*log2(p)^2: the term contributes ~0.2% at p=32768 and
	// must not decide the verdict.
	m := pmnf.Model{Constant: 40, Terms: []pmnf.Term{{
		Coefficient: 1e-8,
		Exps:        []pmnf.Exponents{{I: 1, J: 2}},
	}}}
	a, err := AnalyzeAt(m, 0, nil, []float64{32768}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Verdict != Scalable {
		t.Fatalf("verdict = %v, want scalable (term is negligible)", a.Verdict)
	}
	// With a big coefficient the same term must dominate again.
	m.Terms[0].Coefficient = 1
	b, err := AnalyzeAt(m, 0, nil, []float64{32768}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Verdict != Bottleneck {
		t.Fatalf("verdict = %v, want bottleneck", b.Verdict)
	}
}

func TestAnalyzeAtErrors(t *testing.T) {
	m := pmnf.Model{Constant: 1, ParamNames: []string{"p"}}
	if _, err := AnalyzeAt(m, 0, nil, []float64{1, 2}, 0); err == nil {
		t.Fatal("wrong projection-point arity should fail")
	}
	if _, err := AnalyzeAt(m, 3, nil, []float64{1}, 0); err == nil {
		t.Fatal("bad parameter index should fail")
	}
}
