package nn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"extrapdnn/internal/mat"
)

// divergenceFixture builds a small training problem (two shifted Gaussian
// blobs) that any sane optimizer separates easily.
func divergenceFixture(rng *rand.Rand, samples int) (*mat.Matrix, []int) {
	x := mat.New(samples, 4)
	labels := make([]int, samples)
	for i := 0; i < samples; i++ {
		class := i % 2
		labels[i] = class
		shift := float64(class) * 2
		for c := 0; c < 4; c++ {
			x.Set(i, c, rng.NormFloat64()*0.3+shift)
		}
	}
	return x, labels
}

// TestTrainDetectsNaturalDivergence drives the optimizer off a cliff with an
// absurd learning rate: AdaMax steps move weights by ~lr per batch, so a
// rate beyond WeightExplosionLimit must trip the detector after one epoch
// instead of silently returning a garbage network.
func TestTrainDetectsNaturalDivergence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, labels := divergenceFixture(rng, 64)
	net := NewNetwork([]int{4, 8, 2}, rng)
	stats := net.Train(x, labels, TrainOptions{
		Epochs:       4,
		LearningRate: 10 * WeightExplosionLimit,
		Rng:          rand.New(rand.NewSource(4)),
	})
	if !stats.Diverged {
		t.Fatal("runaway learning rate must be detected as divergence")
	}
	if stats.DivergedEpoch != 1 {
		t.Fatalf("DivergedEpoch = %d, want 1", stats.DivergedEpoch)
	}
	if len(stats.EpochLoss) != 1 {
		t.Fatalf("training must abort at the diverged epoch, ran %d epochs", len(stats.EpochLoss))
	}
	if err := stats.Err(); !errors.Is(err, ErrDiverged) {
		t.Fatalf("stats.Err() = %v, want ErrDiverged", err)
	}
}

func TestTrainHealthyRunNotDiverged(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, labels := divergenceFixture(rng, 64)
	net := NewNetwork([]int{4, 8, 2}, rng)
	stats := net.Train(x, labels, TrainOptions{Epochs: 3, Rng: rand.New(rand.NewSource(6))})
	if stats.Diverged || stats.Err() != nil {
		t.Fatalf("healthy run flagged: diverged=%v err=%v", stats.Diverged, stats.Err())
	}
	if len(stats.EpochLoss) != 3 {
		t.Fatalf("ran %d epochs, want 3", len(stats.EpochLoss))
	}
}

func TestTrainStatsErrNonFiniteFinalLoss(t *testing.T) {
	s := TrainStats{EpochLoss: []float64{0.5, math.NaN()}}
	if err := s.Err(); !errors.Is(err, ErrDiverged) {
		t.Fatalf("NaN final loss must surface ErrDiverged, got %v", err)
	}
	if (TrainStats{}).Err() != nil {
		t.Fatal("empty stats must not report divergence")
	}
}

func TestWeightsHealthy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewNetwork([]int{2, 3, 2}, rng)
	if !weightsHealthy(net.Layers) {
		t.Fatal("fresh Glorot weights must be healthy")
	}
	net.Layers[0].W.Set(0, 0, math.Inf(1))
	if weightsHealthy(net.Layers) {
		t.Fatal("Inf weight must be unhealthy")
	}
	net.Layers[0].W.Set(0, 0, 0)
	net.Layers[1].B[0] = 2 * WeightExplosionLimit
	if weightsHealthy(net.Layers) {
		t.Fatal("exploded bias must be unhealthy")
	}
}

// countdownCtx cancels itself after a fixed number of Err() checks — a
// deterministic stand-in for "the deadline expires mid-training". TrainCtx
// consults Err() once per epoch boundary, so a countdown of k stops training
// after k-1 completed epochs.
type countdownCtx struct {
	context.Context
	remaining int
	done      chan struct{}
}

func newCountdownCtx(n int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), remaining: n, done: make(chan struct{})}
}

func (c *countdownCtx) Err() error {
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	if c.remaining == 0 {
		close(c.done)
	}
	return nil
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func TestTrainCtxCancelledBeforeStart(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, labels := divergenceFixture(rng, 32)
	net := NewNetwork([]int{4, 8, 2}, rng)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := net.TrainCtx(ctx, x, labels, TrainOptions{Epochs: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(stats.EpochLoss) != 0 {
		t.Fatalf("cancelled-before-start run trained %d epochs", len(stats.EpochLoss))
	}
}

// TestTrainCtxStopsWithinOneEpoch pins the acceptance bound: cancellation
// mid-run stops training at the next epoch boundary.
func TestTrainCtxStopsWithinOneEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, labels := divergenceFixture(rng, 32)
	net := NewNetwork([]int{4, 8, 2}, rng)
	// Err() is consulted once per epoch; allow two checks, so epochs 1 and 2
	// run and the loop must stop before epoch 3.
	ctx := newCountdownCtx(2)
	stats, err := net.TrainCtx(ctx, x, labels, TrainOptions{Epochs: 10})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := len(stats.EpochLoss); got != 2 {
		t.Fatalf("trained %d epochs after cancellation, want 2", got)
	}
}

// TestTrainCtxBitIdenticalToTrain pins that threading a live context through
// training changes nothing: same rng, same data, same resulting weights.
func TestTrainCtxBitIdenticalToTrain(t *testing.T) {
	build := func() (*Network, *mat.Matrix, []int) {
		rng := rand.New(rand.NewSource(11))
		x, labels := divergenceFixture(rng, 48)
		return NewNetwork([]int{4, 8, 2}, rng), x, labels
	}
	netA, xA, lA := build()
	statsA := netA.Train(xA, lA, TrainOptions{Epochs: 2, Rng: rand.New(rand.NewSource(12))})
	netB, xB, lB := build()
	statsB, err := netB.TrainCtx(context.Background(), xB, lB, TrainOptions{Epochs: 2, Rng: rand.New(rand.NewSource(12))})
	if err != nil {
		t.Fatal(err)
	}
	if netA.Fingerprint() != netB.Fingerprint() {
		t.Fatal("TrainCtx produced different weights than Train")
	}
	for e := range statsA.EpochLoss {
		if statsA.EpochLoss[e] != statsB.EpochLoss[e] {
			t.Fatalf("epoch %d loss differs: %v vs %v", e, statsA.EpochLoss[e], statsB.EpochLoss[e])
		}
	}
}
