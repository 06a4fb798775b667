package nn

import (
	"math/rand"
	"testing"

	"extrapdnn/internal/mat"
)

func TestWeightDecayShrinksWeights(t *testing.T) {
	x, labels := twoBlobs(rand.New(rand.NewSource(1)), 40)
	run := func(decay float64) float64 {
		net := NewNetwork([]int{2, 16, 2}, rand.New(rand.NewSource(2)))
		net.Train(x, labels, TrainOptions{Epochs: 20, BatchSize: 8, WeightDecay: decay})
		total := 0.0
		for _, l := range net.Layers {
			for _, w := range l.W.Data() {
				total += w * w
			}
		}
		return total
	}
	if run(1.0) >= run(0) {
		t.Fatal("weight decay should reduce the weight norm")
	}
}

func TestLRDecaySchedule(t *testing.T) {
	// With aggressive decay the later epochs barely move the weights;
	// compare the final loss trajectory length indirectly via determinism.
	x, labels := twoBlobs(rand.New(rand.NewSource(3)), 40)
	net := NewNetwork([]int{2, 8, 2}, rand.New(rand.NewSource(4)))
	stats := net.Train(x, labels, TrainOptions{Epochs: 10, BatchSize: 8, LRDecay: 0.5})
	if len(stats.EpochLoss) != 10 {
		t.Fatalf("epochs = %d", len(stats.EpochLoss))
	}
	// Loss should still decrease overall.
	if stats.EpochLoss[9] >= stats.EpochLoss[0] {
		t.Fatal("loss did not decrease with LR decay")
	}
}

func TestValidationAndEarlyStopping(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Random labels: validation loss cannot improve for long, so patience
	// should trigger well before the epoch budget.
	n := 120
	x := mat.New(n, 4)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		labels[i] = rng.Intn(3)
	}
	net := NewNetwork([]int{4, 32, 3}, rng)
	stats := net.Train(x, labels, TrainOptions{
		Epochs:         200,
		BatchSize:      16,
		ValidationFrac: 0.25,
		Patience:       3,
		Rng:            rng,
	})
	if !stats.Stopped {
		t.Fatal("early stopping should have triggered on unlearnable data")
	}
	if len(stats.EpochLoss) >= 200 {
		t.Fatal("training ran the full budget despite patience")
	}
	if len(stats.ValLoss) != len(stats.EpochLoss) {
		t.Fatalf("val-loss entries %d != epochs %d", len(stats.ValLoss), len(stats.EpochLoss))
	}
}

func TestValidationLossTracked(t *testing.T) {
	x, labels := twoBlobs(rand.New(rand.NewSource(6)), 80)
	net := NewNetwork([]int{2, 16, 2}, rand.New(rand.NewSource(7)))
	stats := net.Train(x, labels, TrainOptions{
		Epochs: 10, BatchSize: 8, ValidationFrac: 0.2,
	})
	if len(stats.ValLoss) != 10 {
		t.Fatalf("val losses = %d", len(stats.ValLoss))
	}
	// Learnable data: validation loss should improve.
	if stats.ValLoss[9] >= stats.ValLoss[0] {
		t.Fatalf("validation loss did not improve: %v", stats.ValLoss)
	}
}

func TestDropoutStillLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := NewNetwork([]int{2, 32, 2}, rng)
	x, labels := twoBlobs(rng, 200)
	net.Train(x, labels, TrainOptions{
		Epochs: 40, BatchSize: 32, Dropout: 0.3, Rng: rng,
	})
	if acc := net.Accuracy(x, labels); acc < 0.9 {
		t.Fatalf("accuracy with dropout = %v, want >= 0.9", acc)
	}
}

func TestDropoutZeroMatchesBaseline(t *testing.T) {
	x, labels := twoBlobs(rand.New(rand.NewSource(10)), 50)
	run := func(dropout float64) []float64 {
		net := NewNetwork([]int{2, 8, 2}, rand.New(rand.NewSource(11)))
		net.Train(x, labels, TrainOptions{Epochs: 3, BatchSize: 16, Dropout: dropout})
		return net.Predict([]float64{0.3, -0.2})
	}
	a, b := run(0), run(0) // dropout disabled must be deterministic
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("dropout=0 training should be deterministic")
		}
	}
}
