package core

import (
	"math/rand"
	"testing"

	"extrapdnn/internal/regression"
	"extrapdnn/internal/synth"
)

// TestModelMatchesStandaloneModelers pins the line hand-off inside Model:
// with adaptation off and both modelers forced on, the report's DNN and
// regression results must equal what each modeler returns on the set alone,
// as the same model and the same SMAPE bits.
func TestModelMatchesStandaloneModelers(t *testing.T) {
	pre := testPretrained()
	m, err := New(pre, Config{DisableAdaptation: true, NoiseThreshold: 10, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	for params := 1; params <= 3; params++ {
		for i := 0; i < 12; i++ {
			spec := synth.TaskSpec{
				NumParams:      params,
				PointsPerParam: 5,
				Reps:           5,
				NoiseLevel:     0.15 * float64(i) / 11,
				EvalPoints:     1,
			}
			set := synth.GenInstance(rand.New(rand.NewSource(int64(100*params+i))), spec).Set
			rep, err := m.Model(set)
			if err != nil {
				t.Fatalf("m=%d set %d: %v", params, i, err)
			}
			if rep.DNN == nil || rep.Regression == nil {
				t.Fatalf("m=%d set %d: both modelers must run (dnn %v, regression %v)", params, i, rep.DNN != nil, rep.Regression != nil)
			}
			dnn, err := pre.Model(set)
			if err != nil {
				t.Fatalf("m=%d set %d: standalone DNN: %v", params, i, err)
			}
			reg, err := regression.Model(set, regression.Options{TopK: 3})
			if err != nil {
				t.Fatalf("m=%d set %d: standalone regression: %v", params, i, err)
			}
			for _, c := range []struct {
				name      string
				got, want regression.Result
			}{{"DNN", *rep.DNN, dnn}, {"regression", *rep.Regression, reg}} {
				if c.got.Model.String() != c.want.Model.String() || !sameBits(c.got.SMAPE, c.want.SMAPE) {
					t.Fatalf("m=%d set %d: %s in Model %v (SMAPE %v), standalone %v (SMAPE %v)",
						params, i, c.name, c.got.Model, c.got.SMAPE, c.want.Model, c.want.SMAPE)
				}
			}
		}
	}
}
