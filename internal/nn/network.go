// Package nn is a from-scratch feed-forward neural-network library built on
// the stdlib only. It provides exactly what the DNN performance modeler
// needs — dense layers with tanh activations, a softmax classification head
// trained with cross-entropy, Glorot initialization, minibatch training with
// the AdaMax optimizer (plus Adam and SGD for ablation), and binary model
// serialization — standing in for the TensorFlow-class stack the paper used,
// which has no Go equivalent. Batched forward and backward passes run on the
// goroutine-parallel matrix kernels of internal/mat.
//
// The training loop is transpose-free and allocation-free in steady state:
// backpropagation uses the fused kernels mat.MulATTo/MulBTTo instead of
// materializing Matrix.T() copies, and Train preallocates one trainWorkspace
// (batch input, per-layer activations/deltas/gradients, dropout masks, and a
// zero-copy validation view) so the per-batch loop never touches the heap.
// Inference runs on reused ping-pong buffers. See DESIGN.md §6 and
// docs/PERFORMANCE.md.
package nn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"extrapdnn/internal/mat"
)

// Activation selects a layer's nonlinearity.
type Activation int

const (
	// Tanh is the hyperbolic tangent used by the paper's hidden layers.
	Tanh Activation = iota
	// Softmax turns the output layer into a class probability distribution.
	Softmax
	// Linear applies no nonlinearity.
	Linear
	// ReLU is provided for ablation experiments.
	ReLU
)

// String returns the activation name.
func (a Activation) String() string {
	switch a {
	case Tanh:
		return "tanh"
	case Softmax:
		return "softmax"
	case Linear:
		return "linear"
	case ReLU:
		return "relu"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// Layer is one dense layer of a Network: outputs = act(inputs · W + b), with
// W (in×out, so the batched forward pass is a single matmul), bias B (out)
// and activation Act, all in float64 — the master weights.
type Layer = layer[float64]

// layer is a dense layer at element width T. Float32 training runs and
// inference sessions work on float32 copies of the master layers.
type layer[T mat.Float] struct {
	W   *mat.Dense[T] // in×out
	B   []T           // out
	Act Activation
}

// In returns the layer's input width.
func (l *layer[T]) In() int { return l.W.Rows() }

// Out returns the layer's output width.
func (l *layer[T]) Out() int { return l.W.Cols() }

// Network is a feed-forward network: a stack of dense layers.
type Network struct {
	Layers []*Layer
}

// NewNetwork builds a network with the given layer sizes (sizes[0] is the
// input width, sizes[len-1] the output width), tanh hidden activations and a
// softmax output — the paper's architecture. Weights use Glorot-uniform
// initialization; biases start at zero. The rng makes initialization
// reproducible.
func NewNetwork(sizes []int, rng *rand.Rand) *Network {
	return NewNetworkActivations(sizes, Tanh, Softmax, rng)
}

// NewNetworkActivations builds a network with explicit hidden and output
// activations, used by the ablation benchmarks.
func NewNetworkActivations(sizes []int, hidden, output Activation, rng *rand.Rand) *Network {
	if len(sizes) < 2 {
		panic("nn: need at least an input and an output size")
	}
	for _, s := range sizes {
		if s < 1 {
			panic(fmt.Sprintf("nn: invalid layer size %d", s))
		}
	}
	net := &Network{}
	for i := 0; i < len(sizes)-1; i++ {
		in, out := sizes[i], sizes[i+1]
		act := hidden
		if i == len(sizes)-2 {
			act = output
		}
		l := &Layer{W: mat.New(in, out), B: make([]float64, out), Act: act}
		// Glorot/Xavier uniform: U(-r, r) with r = sqrt(6/(in+out)).
		r := math.Sqrt(6 / float64(in+out))
		for j := range l.W.Data() {
			l.W.Data()[j] = (rng.Float64()*2 - 1) * r
		}
		net.Layers = append(net.Layers, l)
	}
	return net
}

// InputSize returns the width of the input layer.
func (n *Network) InputSize() int { return n.Layers[0].In() }

// OutputSize returns the width of the output layer.
func (n *Network) OutputSize() int { return n.Layers[len(n.Layers)-1].Out() }

// NumParams returns the total number of trainable parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.Layers {
		total += l.W.Rows()*l.W.Cols() + len(l.B)
	}
	return total
}

// Fingerprint returns an FNV-1a hash over the network's architecture and
// exact parameter bits. Two networks have equal fingerprints iff they are
// structurally identical and bit-identical in every weight and bias, so the
// fingerprint identifies a pretrained network inside cache keys (the
// adaptation cache keys adapted networks by task signature, which must
// distinguish different pretrained starting points).
func (n *Network) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeU64(uint64(len(n.Layers)))
	for _, l := range n.Layers {
		writeU64(uint64(l.In()))
		writeU64(uint64(l.Out()))
		writeU64(uint64(l.Act))
		for _, w := range l.W.Data() {
			writeU64(math.Float64bits(w))
		}
		for _, b := range l.B {
			writeU64(math.Float64bits(b))
		}
	}
	return h.Sum64()
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	c := &Network{}
	for _, l := range n.Layers {
		b := make([]float64, len(l.B))
		copy(b, l.B)
		c.Layers = append(c.Layers, &Layer{W: l.W.Clone(), B: b, Act: l.Act})
	}
	return c
}

// applyActivation applies the layer activation in place to a batch of
// pre-activations (rows are samples). Tanh is math.Tanh at float64 and the
// native float32 approximation mat.Tanh32s (vectorized on SIMD hosts) at
// float32.
func applyActivation[T mat.Float](z *mat.Dense[T], act Activation) {
	switch act {
	case Linear:
	case Tanh:
		if z32, ok := any(z).(*mat.Dense[float32]); ok {
			mat.Tanh32s(z32.Data())
			return
		}
		d := z.Data()
		for i, v := range d {
			d[i] = T(math.Tanh(float64(v)))
		}
	case ReLU:
		d := z.Data()
		for i, v := range d {
			if v < 0 {
				d[i] = 0
			}
		}
	case Softmax:
		for i := 0; i < z.Rows(); i++ {
			softmaxRow(z.Row(i))
		}
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", act))
	}
}

// softmaxRow computes a numerically stable softmax in place. The exponential
// is evaluated in float64 at either width.
func softmaxRow[T mat.Float](row []T) {
	max := row[0]
	for _, v := range row[1:] {
		if v > max {
			max = v
		}
	}
	var sum T
	for i, v := range row {
		e := T(math.Exp(float64(v - max)))
		row[i] = e
		sum += e
	}
	for i := range row {
		row[i] /= sum
	}
}

// addBias adds the bias vector to every row of z.
func addBias[T mat.Float](z *mat.Dense[T], bias []T) {
	for r := 0; r < z.Rows(); r++ {
		row := z.Row(r)
		for c := range row {
			row[c] += bias[c]
		}
	}
}

// ForwardBatch runs the network on a batch (rows are samples) and returns
// the activations of every layer; out[0] is the input itself and
// out[len(Layers)] the network output. Keeping all activations enables
// backpropagation.
func (n *Network) ForwardBatch(x *mat.Matrix) []*mat.Matrix {
	if x.Cols() != n.InputSize() {
		panic(fmt.Sprintf("nn: input width %d, network expects %d", x.Cols(), n.InputSize()))
	}
	acts := make([]*mat.Matrix, len(n.Layers)+1)
	acts[0] = x
	for i, l := range n.Layers {
		z := mat.New(x.Rows(), l.Out())
		mat.MulTo(z, acts[i], l.W)
		addBias(z, l.B)
		applyActivation(z, l.Act)
		acts[i+1] = z
	}
	return acts
}

// Predict runs one input vector through the network and returns the output
// activations (class probabilities for a softmax head).
func (n *Network) Predict(x []float64) []float64 {
	in := mat.NewFromData(1, len(x), append([]float64(nil), x...))
	out := newForwarder(n.Layers, 1).run(in, false)
	res := make([]float64, out.Cols())
	copy(res, out.Row(0))
	return res
}

// TopK returns the k most probable classes for one input, most probable
// first. k is clamped to the output width.
func (n *Network) TopK(x []float64, k int) []int {
	probs := n.Predict(x)
	if k > len(probs) {
		k = len(probs)
	}
	idx := make([]int, len(probs))
	for i := range idx {
		idx[i] = i
	}
	// Partial selection sort: k is tiny (3) compared to the class count.
	for sel := 0; sel < k; sel++ {
		best := sel
		for j := sel + 1; j < len(idx); j++ {
			if probs[idx[j]] > probs[idx[best]] {
				best = j
			}
		}
		idx[sel], idx[best] = idx[best], idx[sel]
	}
	return idx[:k]
}

// Accuracy returns the fraction of rows of x classified as their label.
// It runs on the ping-pong inference path, keeping two activation buffers
// regardless of network depth.
func (n *Network) Accuracy(x *mat.Matrix, labels []int) float64 {
	if x.Rows() == 0 {
		return 0
	}
	out := newForwarder(n.Layers, x.Rows()).run(x, false)
	correct := 0
	for r := 0; r < out.Rows(); r++ {
		row := out.Row(r)
		best := 0
		for c, p := range row {
			if p > row[best] {
				best = c
			}
		}
		if best == labels[r] {
			correct++
		}
	}
	return float64(correct) / float64(x.Rows())
}
