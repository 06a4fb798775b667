package dnnmodel

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"extrapdnn/internal/measurement"
	"extrapdnn/internal/nn"
	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/regression"
)

func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestPretrainCtxCancelled(t *testing.T) {
	m, _, err := PretrainCtx(cancelledCtx(), PretrainConfig{
		Hidden: TinyTopology, SamplesPerClass: 2, Epochs: 1, Seed: 1,
	})
	if m != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pretrain returned (%v, %v)", m, err)
	}
}

func TestDomainAdaptCtxCancelled(t *testing.T) {
	m := getTestModeler(t)
	task := TaskInfo{ParamValues: [][]float64{{2, 4, 8, 16, 32}}, Reps: 3, NoiseMax: 0.3}
	adapted, _, err := m.DomainAdaptCtx(cancelledCtx(), rand.New(rand.NewSource(1)), task,
		AdaptConfig{SamplesPerClass: 2})
	if adapted != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled adaptation returned (%v, %v)", adapted, err)
	}
}

// TestDomainAdaptCtxDiverged forces divergence with a runaway learning rate
// and checks the failure surfaces as ErrDiverged with no modeler — the
// property the adaptation cache relies on to stay unpoisoned.
func TestDomainAdaptCtxDiverged(t *testing.T) {
	m := getTestModeler(t)
	task := TaskInfo{ParamValues: [][]float64{{2, 4, 8, 16, 32}}, Reps: 3, NoiseMax: 0.3}
	adapted, stats, err := m.DomainAdaptCtx(context.Background(), rand.New(rand.NewSource(2)), task,
		AdaptConfig{SamplesPerClass: 4, LearningRate: 10 * nn.WeightExplosionLimit})
	if adapted != nil {
		t.Fatal("diverged adaptation must not return a modeler")
	}
	if !errors.Is(err, nn.ErrDiverged) || !stats.Diverged {
		t.Fatalf("diverged adaptation returned err=%v stats=%+v", err, stats)
	}
}

// TestDomainAdaptDivergedFallsBackToClone pins the legacy wrapper's contract:
// without a context in play it still returns a usable network (a clone of the
// receiver) instead of the diverged one.
func TestDomainAdaptDivergedFallsBackToClone(t *testing.T) {
	m := getTestModeler(t)
	task := TaskInfo{ParamValues: [][]float64{{2, 4, 8, 16, 32}}, Reps: 3, NoiseMax: 0.3}
	adapted := m.DomainAdapt(rand.New(rand.NewSource(3)), task,
		AdaptConfig{SamplesPerClass: 4, LearningRate: 10 * nn.WeightExplosionLimit})
	if adapted == nil || adapted.Net == nil {
		t.Fatal("legacy DomainAdapt must always return a modeler")
	}
	if adapted.Net.Fingerprint() != m.Net.Fingerprint() {
		t.Fatal("diverged legacy adaptation must fall back to the pretrained weights")
	}
}

func TestModelCtxCancelled(t *testing.T) {
	m := getTestModeler(t)
	e := pmnf.Exponents{I: 1, J: 0}
	set := &measurement.Set{}
	for _, x := range []float64{4, 8, 16, 32, 64} {
		set.Data = append(set.Data, measurement.Measurement{
			Point:  measurement.Point{x},
			Values: []float64{10 + 2*e.Eval(x)},
		})
	}
	prep, err := regression.Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ModelCtx(cancelledCtx(), prep); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ModelCtx returned %v", err)
	}
	// Healthy path through ModelCtx matches Model.
	resA, errA := m.Model(set)
	resB, errB := m.ModelCtx(context.Background(), prep)
	if errA != nil || errB != nil {
		t.Fatalf("errs: %v, %v", errA, errB)
	}
	if resA.SMAPE != resB.SMAPE || resA.Model.String() != resB.Model.String() {
		t.Fatal("ModelCtx diverged from Model on the healthy path")
	}
}
