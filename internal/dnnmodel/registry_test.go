package dnnmodel

import (
	"context"
	"math/rand"
	"testing"

	"extrapdnn/internal/modelregistry"
	"extrapdnn/internal/nn"
)

// TestPretrainRegistryHit pins the registry acceptance criterion: a second
// pretraining run with the same effective configuration and a warm model dir
// performs zero training epochs and returns the stored network.
func TestPretrainRegistryHit(t *testing.T) {
	reg, err := modelregistry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := PretrainConfig{
		Hidden:          TinyTopology,
		SamplesPerClass: 8,
		Epochs:          1,
		Seed:            9,
		Registry:        reg,
	}
	first, stats, err := PretrainCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.EpochLoss) == 0 {
		t.Fatal("cold run must actually train")
	}
	second, stats2, err := PretrainCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats2.EpochLoss) != 0 {
		t.Fatalf("warm run trained %d epochs, want 0 (registry hit)", len(stats2.EpochLoss))
	}
	if second.Net.Fingerprint() != first.Net.Fingerprint() {
		t.Fatal("registry returned a different network")
	}

	// A different precision is a different key: it must miss and retrain.
	cfg32 := cfg
	cfg32.Precision = nn.Float32
	_, stats32, err := PretrainCtx(context.Background(), cfg32)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats32.EpochLoss) == 0 {
		t.Fatal("float32 run must not hit the float64 registry entry")
	}
}

// TestDomainAdaptPrecisionPropagates: the adapted modeler inherits the
// adaptation precision, so downstream classification uses the same
// arithmetic the caller selected.
func TestDomainAdaptPrecisionPropagates(t *testing.T) {
	m := getTestModeler(t)
	task := TaskInfo{ParamValues: [][]float64{{2, 4, 8, 16, 32}}, Reps: 3, NoiseMax: 0.1}
	adapted, _, err := m.DomainAdaptCtx(context.Background(), rand.New(rand.NewSource(12)), task,
		AdaptConfig{SamplesPerClass: 4, Epochs: 1, Precision: nn.Float32})
	if err != nil {
		t.Fatal(err)
	}
	if adapted.Precision != nn.Float32 {
		t.Fatalf("adapted precision = %v, want Float32", adapted.Precision)
	}
}
