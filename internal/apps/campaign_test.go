package apps

import (
	"math"
	"math/rand"
	"testing"

	"extrapdnn/internal/stats"
)

func TestCampaignShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, a := range All() {
		set, evalRef := a.Campaign(rng, a.Kernels[0])
		if err := set.Validate(); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if len(set.Data) != len(a.ModelPoints) {
			t.Fatalf("%s: %d points", a.Name, len(set.Data))
		}
		if evalRef <= 0 {
			t.Fatalf("%s: eval reference %v", a.Name, evalRef)
		}
	}
}

func TestCampaignEvalRefNearTruthWhenCalm(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := RELeARN()
	for _, k := range r.Kernels {
		_, evalRef := r.Campaign(rng, k)
		truth := k.Truth.Eval(r.EvalPoint)
		if math.Abs(evalRef-truth)/truth > 0.01 {
			t.Fatalf("%s: calm eval reference %v too far from truth %v", k.Name, evalRef, truth)
		}
	}
}

func TestCampaignDeterministic(t *testing.T) {
	f := FASTEST()
	a, refA := f.Campaign(rand.New(rand.NewSource(5)), f.Kernels[0])
	b, refB := f.Campaign(rand.New(rand.NewSource(5)), f.Kernels[0])
	if refA != refB {
		t.Fatal("same seed should give the same eval reference")
	}
	for i := range a.Data {
		if a.Data[i].Values[0] != b.Data[i].Values[0] {
			t.Fatal("same seed should give identical campaigns")
		}
	}
}

func TestCampaignNoiseMatchesProfile(t *testing.T) {
	// The per-point noise levels of many campaigns must land near the app's
	// configured mean (FASTEST ≈ 49.6%).
	rng := rand.New(rand.NewSource(6))
	f := FASTEST()
	var levels []float64
	for i := 0; i < 2000; i++ {
		levels = append(levels, f.noiseLevel(rng))
	}
	mean := stats.Mean(levels)
	if math.Abs(mean-0.496) > 0.06 {
		t.Fatalf("FASTEST campaign noise mean %.3f, want ≈ 0.496", mean)
	}
}

func TestProfileGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := Kripke().Profile(rng)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Entries) != len(Kripke().Kernels) {
		t.Fatalf("profile has %d entries", len(p.Entries))
	}
	if p.Application != "Kripke" || p.Entries[0].Metric != "runtime" {
		t.Fatalf("profile metadata: %+v", p)
	}
	relevant := 0
	for _, e := range p.Entries {
		if e.RuntimeShare > 0.01 {
			relevant++
		}
	}
	if got := relevant; got != 6 {
		t.Fatalf("performance-relevant entries = %d, want 6", got)
	}
}
