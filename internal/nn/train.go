package nn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"extrapdnn/internal/faultinject"
	"extrapdnn/internal/mat"
	"extrapdnn/internal/obs"
)

// DefaultLearningRate is the step size used when TrainOptions.LearningRate
// is zero — the AdaMax default. Exported so retry policies can derive a
// reduced rate from the effective one.
const DefaultLearningRate = 0.002

// WeightExplosionLimit is the largest finite weight magnitude the divergence
// detector tolerates. The networks train on inputs normalized to [0, 1] and
// healthy runs keep weights within single digits, so anything beyond 1e8 is
// a runaway optimizer — detected at the next epoch boundary, long before the
// float64 range overflows into ±Inf.
const WeightExplosionLimit = 1e8

// ErrDiverged reports that a training run produced a non-finite loss or
// exploding weights. Callers test for it with errors.Is; TrainStats carries
// the epoch at which the detector tripped.
var ErrDiverged = errors.New("nn: training diverged")

// OptimizerKind selects the gradient-descent variant.
type OptimizerKind int

const (
	// AdaMax is the paper's optimizer (Adam with an infinity-norm second
	// moment).
	AdaMax OptimizerKind = iota
	// Adam is provided for ablation.
	Adam
	// SGD is plain stochastic gradient descent, for ablation.
	SGD
)

// String returns the optimizer name.
func (o OptimizerKind) String() string {
	switch o {
	case AdaMax:
		return "adamax"
	case Adam:
		return "adam"
	case SGD:
		return "sgd"
	default:
		return fmt.Sprintf("OptimizerKind(%d)", int(o))
	}
}

// TrainOptions configures minibatch training.
type TrainOptions struct {
	Epochs       int           // full passes over the data (default 1)
	BatchSize    int           // minibatch size (default 64)
	LearningRate float64       // step size (default 0.002, the AdaMax default)
	Beta1        float64       // first-moment decay (default 0.9)
	Beta2        float64       // second-moment decay (default 0.999)
	Optimizer    OptimizerKind // default AdaMax
	Rng          *rand.Rand    // shuffling; nil disables shuffling

	// WeightDecay applies decoupled L2 regularization: each step multiplies
	// the weights by (1 - lr*WeightDecay). Zero disables it.
	WeightDecay float64
	// Dropout zeroes each hidden activation with this probability during
	// training (inverted dropout, so inference needs no rescaling). Zero
	// disables it.
	Dropout float64
	// LRDecay multiplies the learning rate by this factor after every epoch
	// (e.g. 0.9); zero or one disables the schedule.
	LRDecay float64
	// ValidationFrac holds out this fraction of the samples (taken from the
	// end of the dataset) to monitor generalization. Zero disables
	// validation.
	ValidationFrac float64
	// Patience stops training early after this many consecutive epochs
	// without validation-loss improvement (requires ValidationFrac > 0).
	// Zero disables early stopping.
	Patience int
	// Precision selects the arithmetic width of the run. The default,
	// Float64, trains the master weights in place and is bit-identical to
	// the historical behavior; Float32 runs the same epoch loop on float32
	// working copies of the weights and writes the result back (see
	// precision.go and DESIGN.md §11).
	Precision Precision
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.Epochs <= 0 {
		o.Epochs = 1
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 64
	}
	if o.LearningRate <= 0 {
		o.LearningRate = DefaultLearningRate
	}
	if o.Beta1 <= 0 {
		o.Beta1 = 0.9
	}
	if o.Beta2 <= 0 {
		o.Beta2 = 0.999
	}
	return o
}

// TrainStats reports the result of a training run.
type TrainStats struct {
	EpochLoss []float64 // mean training cross-entropy per epoch
	ValLoss   []float64 // mean validation cross-entropy per epoch (when enabled)
	Batches   int       // total optimizer steps taken
	Stopped   bool      // true when early stopping ended training
	// Diverged is true when the run was aborted by the divergence detector:
	// the epoch loss went non-finite or a weight escaped
	// WeightExplosionLimit. The network then holds garbage parameters and
	// must not be used (or cached); DivergedEpoch is the 1-based epoch at
	// which the detector tripped.
	Diverged      bool
	DivergedEpoch int
}

// FinalLoss returns the loss of the last epoch (NaN when no epoch ran).
func (s TrainStats) FinalLoss() float64 {
	if len(s.EpochLoss) == 0 {
		return math.NaN()
	}
	return s.EpochLoss[len(s.EpochLoss)-1]
}

// Err returns a typed divergence error when the run diverged (wrapping
// ErrDiverged) and nil otherwise, so callers can surface a bad training run
// without inspecting individual fields. A run whose final loss is
// non-finite counts as diverged even if the detector flag was not set —
// that is the blind spot this method exists to close.
func (s TrainStats) Err() error {
	if s.Diverged {
		return fmt.Errorf("%w: non-finite loss or exploding weights at epoch %d", ErrDiverged, s.DivergedEpoch)
	}
	if len(s.EpochLoss) > 0 && !isFinite(s.FinalLoss()) {
		return fmt.Errorf("%w: final loss %v", ErrDiverged, s.FinalLoss())
	}
	return nil
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// optState holds per-layer optimizer accumulators.
type optState[T mat.Float] struct {
	mW, vW *mat.Dense[T] // first/second moments for weights
	mB, vB []T           // first/second moments for biases
	step   int
}

// Train fits the network to (x, labels) with softmax cross-entropy loss.
// x holds one sample per row; labels are class indices. It returns per-epoch
// loss statistics. Training mutates the network in place.
func (n *Network) Train(x *mat.Matrix, labels []int, opts TrainOptions) TrainStats {
	stats, _ := n.TrainCtx(context.Background(), x, labels, opts)
	return stats
}

// TrainCtx is Train with cooperative cancellation: the context is checked at
// every epoch boundary, so a cancelled training run stops within one epoch
// and returns ctx.Err() along with the statistics of the epochs that
// completed. The arithmetic is bit-identical to Train — the checks only
// read. TrainCtx also runs the divergence detector after every epoch (see
// TrainStats.Diverged); divergence is reported through the stats, not the
// error, because it is a property of the run, not of the call.
func (n *Network) TrainCtx(ctx context.Context, x *mat.Matrix, labels []int, opts TrainOptions) (TrainStats, error) {
	opts = opts.withDefaults()
	numSamples := x.Rows()
	if numSamples != len(labels) {
		panic(fmt.Sprintf("nn: %d samples vs %d labels", numSamples, len(labels)))
	}
	if numSamples == 0 {
		return TrainStats{}, ctx.Err()
	}
	if n.Layers[len(n.Layers)-1].Act != Softmax {
		panic("nn: Train requires a softmax output layer")
	}
	numClasses := n.OutputSize()
	for i, lbl := range labels {
		if lbl < 0 || lbl >= numClasses {
			panic(fmt.Sprintf("nn: label %d at sample %d out of range [0,%d)", lbl, i, numClasses))
		}
	}

	if opts.Precision == Float32 {
		return trainCtx[float32](ctx, n, x, labels, opts)
	}
	return trainCtx[float64](ctx, n, x, labels, opts)
}

// workingLayers returns the layers a run at element width T computes on and
// a function that makes the result visible in the float64 master weights. A
// float64 run works in place on n.Layers, so there is nothing to write back;
// a float32 run converts the weights once and writes them back on every
// exit, completed or aborted, mirroring the in-place semantics.
func workingLayers[T mat.Float](n *Network) ([]*layer[T], func()) {
	if ls, ok := any(n.Layers).([]*layer[T]); ok {
		return ls, func() {}
	}
	ls := make([]*layer[T], len(n.Layers))
	for i, l := range n.Layers {
		b := make([]T, len(l.B))
		for j, v := range l.B {
			b[j] = T(v)
		}
		ls[i] = &layer[T]{W: denseOf[T](l.W), B: b, Act: l.Act}
	}
	return ls, func() {
		for i, l := range ls {
			mat.Convert(n.Layers[i].W, l.W)
			for j, v := range l.B {
				n.Layers[i].B[j] = float64(v)
			}
		}
	}
}

// newOptStates returns zeroed optimizer accumulators for every layer.
func newOptStates[T mat.Float](layers []*layer[T]) []*optState[T] {
	states := make([]*optState[T], len(layers))
	for i, l := range layers {
		states[i] = &optState[T]{
			mW: mat.NewDense[T](l.W.Rows(), l.W.Cols()),
			vW: mat.NewDense[T](l.W.Rows(), l.W.Cols()),
			mB: make([]T, len(l.B)),
			vB: make([]T, len(l.B)),
		}
	}
	return states
}

// trainCtx is the training engine behind TrainCtx, at element width T. The
// caller has validated the inputs and applied option defaults. Both widths
// run the same loop and consume the rng in the same order, so they see the
// same shuffles and dropout masks; only the arithmetic width differs.
func trainCtx[T mat.Float](ctx context.Context, n *Network, x *mat.Matrix, labels []int, opts TrainOptions) (TrainStats, error) {
	numSamples := x.Rows()

	// Telemetry: one run counter tick plus a span covering the whole run.
	// With observability off this is one atomic load and a nil span — the
	// training loop itself stays allocation-free either way (obs alloc gate).
	obsTrainRuns.Inc()
	spanCtx, span := obs.StartSpan(ctx, "nn.train")
	if opts.Precision == Float32 {
		obsTrainRunsF32.Inc()
		if span != nil {
			span.SetString("precision", Float32.String())
		}
	} else {
		obsTrainRunsF64.Inc()
	}
	ctx = spanCtx

	layers, writeBack := workingLayers[T](n)
	defer writeBack()

	states := newOptStates(layers)

	// Hold out the validation tail when requested.
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

	// All forward/backward buffers are allocated once here; the batch loop
	// below performs zero heap allocations in steady state (see workspace.go
	// and DESIGN.md §7).
	effBatch := opts.BatchSize
	if effBatch > trainCount {
		effBatch = trainCount
	}
	dropout := opts.Dropout > 0 && opts.Dropout < 1
	ws := newTrainWorkspace(layers, x, effBatch, trainCount%effBatch, trainCount, numSamples-trainCount, dropout)

	stats := TrainStats{}
	if span != nil {
		defer func() {
			span.SetInt("epochs", int64(len(stats.EpochLoss)))
			span.SetFloat("final_loss", stats.FinalLoss())
			span.SetBool("diverged", stats.Diverged)
			span.End()
		}()
	}
	bestVal := math.Inf(1)
	badEpochs := 0
	rng := opts.Rng
	if rng == nil {
		// Fixed-seed fallback: shuffling must never silently turn off, or
		// minibatch SGD would be fed sorted-by-class data; training without an
		// explicit Rng stays fully deterministic.
		rng = rand.New(rand.NewSource(1))
	}
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		var epochStart time.Time
		if obs.MetricsEnabled() {
			epochStart = time.Now()
		}
		rng.Shuffle(trainCount, func(a, b int) { order[a], order[b] = order[b], order[a] })
		epochLoss, batches := 0.0, 0
		for start := 0; start < trainCount; start += opts.BatchSize {
			end := start + opts.BatchSize
			if end > trainCount {
				end = trainCount
			}
			batch := order[start:end]
			loss := trainBatch(layers, x, labels, batch, states, opts, rng, ws)
			epochLoss += loss * float64(len(batch))
			batches++
		}
		meanLoss := epochLoss / float64(trainCount)
		if faultinject.Enabled {
			faultinject.Fire(faultinject.SiteTrainEpochLoss, &meanLoss)
		}
		stats.EpochLoss = append(stats.EpochLoss, meanLoss)
		stats.Batches += batches
		if obs.MetricsEnabled() {
			// Per-epoch telemetry: epochs/sec falls out of epochs_total over
			// epoch_seconds_sum, and the loss ring feeds trajectory-based
			// analyses (PEng4NN-style early prediction) without retaining
			// whole histories. All updates are allocation-free.
			obsTrainEpochs.Inc()
			obsTrainBatches.Add(uint64(batches))
			obsEpochSeconds.Observe(time.Since(epochStart).Seconds())
			obsLastEpochLoss.Set(meanLoss)
			obsLossRing.Push(meanLoss)
		}

		// Divergence detector: a non-finite epoch loss or a runaway weight
		// means the optimizer left the stable region; everything the
		// remaining epochs would compute is garbage, so abort now and let
		// the caller retry or fall back. Healthy runs only pay a read-only
		// scan per epoch — results stay bit-identical.
		if !isFinite(meanLoss) || !weightsHealthy(layers) {
			stats.Diverged = true
			stats.DivergedEpoch = epoch + 1
			obsTrainDivergence.Inc()
			return stats, ctx.Err()
		}

		if opts.LRDecay > 0 && opts.LRDecay != 1 {
			opts.LearningRate *= opts.LRDecay
		}
		if trainCount < numSamples {
			val := validationLoss(ws.valIn, labels, trainCount, ws.valBuf)
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
	return stats, ctx.Err()
}

// weightsHealthy reports whether every weight and bias is finite and within
// WeightExplosionLimit. It only reads, so calling it never perturbs
// training.
func weightsHealthy[T mat.Float](layers []*layer[T]) bool {
	healthy := func(v T) bool {
		return isFinite(float64(v)) && math.Abs(float64(v)) <= WeightExplosionLimit
	}
	for _, l := range layers {
		for _, w := range l.W.Data() {
			if !healthy(w) {
				return false
			}
		}
		for _, b := range l.B {
			if !healthy(b) {
				return false
			}
		}
	}
	return true
}

// validationLoss computes the mean cross-entropy of the network on `in`, whose row
// r carries label labels[from+r]. `in` is typically the held-out tail of the
// training matrix, and f the workspace's inference buffers, so the
// per-epoch validation pass allocates nothing.
func validationLoss[T mat.Float](in *mat.Dense[T], labels []int, from int, f *forwarder[T]) float64 {
	probs := f.run(in, false)
	count := in.Rows()
	loss := 0.0
	for r := 0; r < count; r++ {
		p := float64(probs.At(r, labels[from+r]))
		if p < 1e-15 {
			p = 1e-15
		}
		loss -= math.Log(p)
	}
	return loss / float64(count)
}

// trainBatch runs one forward/backward pass over the given sample indices
// and applies an optimizer step. It returns the mean cross-entropy loss of
// the batch. All matrices come from the preallocated workspace; the only
// external state consumed is the dropout rng. The batch rows are converted
// to T as they are gathered; the loss is accumulated in float64 at either
// width.
func trainBatch[T mat.Float](layers []*layer[T], x *mat.Matrix, labels []int, batch []int, states []*optState[T], opts TrainOptions, dropRng *rand.Rand, ws *trainWorkspace[T]) float64 {
	b := len(batch)
	bb := ws.buffersFor(b)
	in := bb.acts[0]
	for r, idx := range batch {
		dst := in.Row(r)
		for c, v := range x.Row(idx) {
			dst[c] = T(v)
		}
	}

	// Forward pass with fused inverted dropout: each hidden activation is
	// masked (surviving units scaled by 1/(1-p)) before the next layer reads
	// it, so inference uses the network unchanged. The same masks reapply to
	// the deltas during the backward pass.
	numLayers := len(layers)
	var keepScale T
	if bb.masks != nil {
		keepScale = T(1 / (1 - opts.Dropout))
	}
	for i, l := range layers {
		z := bb.acts[i+1]
		mat.MulTo(z, bb.acts[i], l.W)
		addBias(z, l.B)
		applyActivation(z, l.Act)
		if bb.masks != nil && i+1 < numLayers { // hidden activations only
			md, ad := bb.masks[i+1].Data(), z.Data()
			for j := range md {
				md[j] = 0
				if dropRng.Float64() >= opts.Dropout {
					md[j] = keepScale
				}
				ad[j] *= md[j]
			}
		}
	}
	probs := bb.acts[numLayers]

	// Cross-entropy loss and output delta (softmax + CE gives P - Y).
	loss := 0.0
	delta := bb.deltas[numLayers-1]
	copy(delta.Data(), probs.Data())
	for r, idx := range batch {
		lbl := labels[idx]
		p := float64(probs.At(r, lbl))
		if p < 1e-15 {
			p = 1e-15
		}
		loss -= math.Log(p)
		delta.Set(r, lbl, delta.At(r, lbl)-1)
	}
	loss /= float64(b)
	delta.Scale(T(1 / float64(b)))

	// Backpropagate layer by layer on the fused transpose-free kernels:
	// dW = aPrevᵀ·delta and prevDelta = delta·Wᵀ read the operands in place
	// instead of materializing a transposed copy per batch.
	for i := numLayers - 1; i >= 0; i-- {
		l := layers[i]
		aPrev := bb.acts[i]

		// Gradients: dW = aPrevᵀ · delta, db = column sums of delta.
		dW := ws.dW[i]
		mat.MulATTo(dW, aPrev, delta)
		dB := ws.dB[i]
		for c := range dB {
			dB[c] = 0
		}
		for r := 0; r < delta.Rows(); r++ {
			row := delta.Row(r)
			for c, v := range row {
				dB[c] += v
			}
		}

		// Delta for the previous layer (skip for the input).
		if i > 0 {
			prev := bb.deltas[i-1]
			mat.MulBTTo(prev, delta, l.W)
			// Multiply by the activation derivative of layer i-1, and by the
			// dropout mask that was applied to its activations.
			applyActivationGrad(prev, bb.acts[i], layers[i-1].Act)
			if bb.masks != nil && bb.masks[i] != nil {
				pd, md := prev.Data(), bb.masks[i].Data()
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

// applyActivationGrad multiplies delta in place by the derivative of the
// activation, evaluated from the post-activation values a.
func applyActivationGrad[T mat.Float](delta, a *mat.Dense[T], act Activation) {
	switch act {
	case Linear:
	case Tanh:
		d, av := delta.Data(), a.Data()
		for i := range d {
			d[i] *= 1 - av[i]*av[i]
		}
	case ReLU:
		d, av := delta.Data(), a.Data()
		for i := range d {
			if av[i] <= 0 {
				d[i] = 0
			}
		}
	default:
		panic(fmt.Sprintf("nn: activation %v not supported in hidden layers", act))
	}
}

// applyUpdate performs one optimizer step on a layer. The bias corrections
// involve math.Pow of the step counter and are computed in float64 at either
// width.
func applyUpdate[T mat.Float](l *layer[T], st *optState[T], dW *mat.Dense[T], dB []T, opts TrainOptions) {
	st.step++
	t := float64(st.step)
	lr := T(opts.LearningRate)
	beta1, beta2 := T(opts.Beta1), T(opts.Beta2)
	if opts.WeightDecay > 0 {
		// Decoupled weight decay (AdamW-style): shrink the weights directly
		// instead of folding the penalty into the adaptive gradient moments.
		l.W.Scale(1 - lr*T(opts.WeightDecay))
	}
	switch opts.Optimizer {
	case SGD:
		l.W.AddScaled(-lr, dW)
		for i := range l.B {
			l.B[i] -= lr * dB[i]
		}
	case Adam:
		corr1 := T(1 - math.Pow(opts.Beta1, t))
		corr2 := T(1 - math.Pow(opts.Beta2, t))
		w, m, v, g := l.W.Data(), st.mW.Data(), st.vW.Data(), dW.Data()
		for i := range w {
			m[i] = beta1*m[i] + (1-beta1)*g[i]
			v[i] = beta2*v[i] + (1-beta2)*g[i]*g[i]
			w[i] -= lr * (m[i] / corr1) / (T(math.Sqrt(float64(v[i]/corr2))) + 1e-8)
		}
		for i := range l.B {
			st.mB[i] = beta1*st.mB[i] + (1-beta1)*dB[i]
			st.vB[i] = beta2*st.vB[i] + (1-beta2)*dB[i]*dB[i]
			l.B[i] -= lr * (st.mB[i] / corr1) / (T(math.Sqrt(float64(st.vB[i]/corr2))) + 1e-8)
		}
	default: // AdaMax
		corr1 := T(1 - math.Pow(opts.Beta1, t))
		w, m, u, g := l.W.Data(), st.mW.Data(), st.vW.Data(), dW.Data()
		for i := range w {
			m[i] = beta1*m[i] + (1-beta1)*g[i]
			au := beta2 * u[i]
			if ag := T(math.Abs(float64(g[i]))); ag > au {
				au = ag
			}
			u[i] = au
			if u[i] > 0 {
				w[i] -= (lr / corr1) * m[i] / u[i]
			}
		}
		for i := range l.B {
			st.mB[i] = beta1*st.mB[i] + (1-beta1)*dB[i]
			au := beta2 * st.vB[i]
			if ag := T(math.Abs(float64(dB[i]))); ag > au {
				au = ag
			}
			st.vB[i] = au
			if st.vB[i] > 0 {
				l.B[i] -= (lr / corr1) * st.mB[i] / st.vB[i]
			}
		}
	}
}
