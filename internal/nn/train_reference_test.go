package nn

import (
	"math"
	"math/rand"
	"testing"

	"extrapdnn/internal/mat"
)

// This file keeps a deliberately naive reference implementation of the
// training loop — the pre-workspace version that allocates every matrix per
// batch and materializes explicit transposes with Matrix.T(). The production
// path in train.go must produce bit-identical results: the fused kernels
// MulATTo/MulBTTo replicate the accumulation order of MulTo on a transposed
// operand, and the workspace only changes where buffers live, not what is
// computed. Any divergence means the refactor changed the arithmetic.

// refTrain mirrors Network.Train with per-batch allocations.
func refTrain(n *Network, x *mat.Matrix, labels []int, opts TrainOptions) TrainStats {
	opts = opts.withDefaults()
	numSamples := x.Rows()
	states := make([]*optState[float64], len(n.Layers))
	for i, l := range n.Layers {
		states[i] = &optState[float64]{
			mW: mat.New(l.W.Rows(), l.W.Cols()),
			vW: mat.New(l.W.Rows(), l.W.Cols()),
			mB: make([]float64, len(l.B)),
			vB: make([]float64, len(l.B)),
		}
	}
	trainCount := numSamples
	if opts.ValidationFrac > 0 && opts.ValidationFrac < 1 {
		held := int(float64(numSamples) * opts.ValidationFrac)
		if held > 0 && numSamples-held > 0 {
			trainCount = numSamples - held
		}
	}
	order := make([]int, trainCount)
	for i := range order {
		order[i] = i
	}
	stats := TrainStats{}
	bestVal := math.Inf(1)
	badEpochs := 0
	rng := opts.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		rng.Shuffle(trainCount, func(a, b int) { order[a], order[b] = order[b], order[a] })
		epochLoss, batches := 0.0, 0
		for start := 0; start < trainCount; start += opts.BatchSize {
			end := start + opts.BatchSize
			if end > trainCount {
				end = trainCount
			}
			batch := order[start:end]
			loss := refTrainBatch(n, x, labels, batch, states, opts, rng)
			epochLoss += loss * float64(len(batch))
			batches++
		}
		stats.EpochLoss = append(stats.EpochLoss, epochLoss/float64(trainCount))
		stats.Batches += batches
		if opts.LRDecay > 0 && opts.LRDecay != 1 {
			opts.LearningRate *= opts.LRDecay
		}
		if trainCount < numSamples {
			val := refMeanLoss(n, x, labels, trainCount, numSamples)
			stats.ValLoss = append(stats.ValLoss, val)
			if val < bestVal-1e-9 {
				bestVal = val
				badEpochs = 0
			} else if opts.Patience > 0 {
				badEpochs++
				if badEpochs >= opts.Patience {
					stats.Stopped = true
					break
				}
			}
		}
	}
	return stats
}

// refMeanLoss copies the validation rows into a fresh matrix and runs the
// all-activations forward pass.
func refMeanLoss(n *Network, x *mat.Matrix, labels []int, from, to int) float64 {
	count := to - from
	in := mat.New(count, x.Cols())
	for r := 0; r < count; r++ {
		copy(in.Row(r), x.Row(from+r))
	}
	acts := n.ForwardBatch(in)
	probs := acts[len(acts)-1]
	loss := 0.0
	for r := 0; r < count; r++ {
		p := probs.At(r, labels[from+r])
		if p < 1e-15 {
			p = 1e-15
		}
		loss -= math.Log(p)
	}
	return loss / float64(count)
}

// refTrainBatch is the allocating forward/backward pass: fresh matrices for
// input, activations, masks, deltas and gradients, and explicit transposes
// in both backpropagation products.
func refTrainBatch(n *Network, x *mat.Matrix, labels []int, batch []int, states []*optState[float64], opts TrainOptions, dropRng *rand.Rand) float64 {
	b := len(batch)
	in := mat.New(b, x.Cols())
	for r, idx := range batch {
		copy(in.Row(r), x.Row(idx))
	}
	acts := n.ForwardBatch(in)

	var masks []*mat.Matrix
	if opts.Dropout > 0 && opts.Dropout < 1 {
		keepScale := 1 / (1 - opts.Dropout)
		masks = make([]*mat.Matrix, len(acts))
		for i := 1; i < len(acts)-1; i++ {
			mask := mat.New(acts[i].Rows(), acts[i].Cols())
			md, ad := mask.Data(), acts[i].Data()
			for j := range md {
				if dropRng.Float64() >= opts.Dropout {
					md[j] = keepScale
				}
				ad[j] *= md[j]
			}
			masks[i] = mask
			l := n.Layers[i]
			z := mat.New(b, l.Out())
			mat.MulTo(z, acts[i], l.W)
			addBias(z, l.B)
			applyActivation(z, l.Act)
			acts[i+1] = z
		}
	}
	probs := acts[len(acts)-1]

	loss := 0.0
	delta := probs.Clone()
	for r, idx := range batch {
		lbl := labels[idx]
		p := probs.At(r, lbl)
		if p < 1e-15 {
			p = 1e-15
		}
		loss -= math.Log(p)
		delta.Set(r, lbl, delta.At(r, lbl)-1)
	}
	loss /= float64(b)
	delta.Scale(1 / float64(b))

	for i := len(n.Layers) - 1; i >= 0; i-- {
		l := n.Layers[i]
		aPrev := acts[i]
		dW := mat.New(l.W.Rows(), l.W.Cols())
		mat.MulTo(dW, aPrev.T(), delta)
		dB := make([]float64, len(l.B))
		for r := 0; r < delta.Rows(); r++ {
			row := delta.Row(r)
			for c, v := range row {
				dB[c] += v
			}
		}
		if i > 0 {
			prev := mat.New(b, l.In())
			mat.MulTo(prev, delta, l.W.T())
			applyActivationGrad(prev, acts[i], n.Layers[i-1].Act)
			if masks != nil && masks[i] != nil {
				pd, md := prev.Data(), masks[i].Data()
				for j := range pd {
					pd[j] *= md[j]
				}
			}
			delta = prev
		}
		applyUpdate(l, states[i], dW, dB, opts)
	}
	return loss
}

// TestTrainBitIdenticalToReference runs the workspace-based Train and the
// allocating reference trainer from identical initial networks, rng seeds and
// data, and demands bit-identical epoch losses, validation losses and final
// weights across optimizers, dropout, validation/early-stopping and partial
// trailing batches.
func TestTrainBitIdenticalToReference(t *testing.T) {
	cases := []struct {
		name string
		opts TrainOptions
	}{
		{"adamax-defaults", TrainOptions{Epochs: 4, BatchSize: 16}},
		{"partial-batch", TrainOptions{Epochs: 3, BatchSize: 13}},
		{"sgd", TrainOptions{Epochs: 3, BatchSize: 16, Optimizer: SGD, LearningRate: 0.1}},
		{"adam-lrdecay", TrainOptions{Epochs: 3, BatchSize: 16, Optimizer: Adam, LRDecay: 0.9}},
		{"dropout", TrainOptions{Epochs: 3, BatchSize: 16, Dropout: 0.3}},
		{"validation-patience", TrainOptions{Epochs: 8, BatchSize: 16, ValidationFrac: 0.25, Patience: 2}},
		{"weight-decay", TrainOptions{Epochs: 2, BatchSize: 16, WeightDecay: 0.01}},
		{"nil-rng-fallback", TrainOptions{Epochs: 2, BatchSize: 16}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x, labels := twoBlobs(rand.New(rand.NewSource(21)), 90)
			netA := NewNetwork([]int{2, 12, 9, 2}, rand.New(rand.NewSource(22)))
			netB := NewNetwork([]int{2, 12, 9, 2}, rand.New(rand.NewSource(22)))

			optsA, optsB := tc.opts, tc.opts
			if tc.name != "nil-rng-fallback" {
				optsA.Rng = rand.New(rand.NewSource(23))
				optsB.Rng = rand.New(rand.NewSource(23))
			}
			gotStats := netA.Train(x, labels, optsA)
			wantStats := refTrain(netB, x, labels, optsB)

			if len(gotStats.EpochLoss) != len(wantStats.EpochLoss) {
				t.Fatalf("epoch count %d vs reference %d", len(gotStats.EpochLoss), len(wantStats.EpochLoss))
			}
			for e := range gotStats.EpochLoss {
				if gotStats.EpochLoss[e] != wantStats.EpochLoss[e] {
					t.Fatalf("epoch %d loss %v != reference %v", e, gotStats.EpochLoss[e], wantStats.EpochLoss[e])
				}
			}
			if len(gotStats.ValLoss) != len(wantStats.ValLoss) {
				t.Fatalf("val-loss count %d vs reference %d", len(gotStats.ValLoss), len(wantStats.ValLoss))
			}
			for e := range gotStats.ValLoss {
				if gotStats.ValLoss[e] != wantStats.ValLoss[e] {
					t.Fatalf("epoch %d val loss %v != reference %v", e, gotStats.ValLoss[e], wantStats.ValLoss[e])
				}
			}
			if gotStats.Stopped != wantStats.Stopped || gotStats.Batches != wantStats.Batches {
				t.Fatalf("stats %+v vs reference %+v", gotStats, wantStats)
			}
			for li := range netA.Layers {
				if !netA.Layers[li].W.Equal(netB.Layers[li].W, 0) {
					t.Fatalf("layer %d weights differ from reference", li)
				}
				for bi := range netA.Layers[li].B {
					if netA.Layers[li].B[bi] != netB.Layers[li].B[bi] {
						t.Fatalf("layer %d bias %d differs from reference", li, bi)
					}
				}
			}
		})
	}
}
