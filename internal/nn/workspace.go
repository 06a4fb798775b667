package nn

import (
	"extrapdnn/internal/mat"
)

// batchBuffers is one complete set of forward/backward matrices for a fixed
// batch row count. All matrices are zero-copy views over backing arrays owned
// by the trainWorkspace, so a full-batch and a trailing-partial-batch view
// set share the same storage (they are never live at the same time).
type batchBuffers[T mat.Float] struct {
	rows int
	// acts[0] is the batch input; acts[i+1] the activations of layer i.
	acts []*mat.Dense[T]
	// deltas[i] is the loss gradient w.r.t. the activations of layer i.
	deltas []*mat.Dense[T]
	// masks[i] is the inverted-dropout mask applied to acts[i] (hidden
	// activation indices 1..len(layers)-1 only); nil when dropout is off.
	masks []*mat.Dense[T]
}

// trainWorkspace holds every matrix the training loop needs, allocated once
// per Train call so the steady-state batch loop performs zero heap
// allocations. Views for the full batch size and for the trailing partial
// batch (when the training-set size is not a multiple of the batch size) are
// both prebuilt, so even the last batch of an epoch allocates nothing.
type trainWorkspace[T mat.Float] struct {
	full    *batchBuffers[T]
	partial *batchBuffers[T] // nil when trainCount divides evenly

	// Per-layer gradient accumulators, reused every batch.
	dW []*mat.Dense[T]
	dB [][]T

	// Validation-loss state: the held-out tail rows (a zero-copy view at
	// float64, converted once at float32) and the allocation-free inference
	// buffers.
	valIn  *mat.Dense[T]
	valBuf *forwarder[T]
}

// view wraps the first rows*cols elements of backing as a rows×cols matrix.
func view[T mat.Float](rows, cols int, backing []T) *mat.Dense[T] {
	return mat.NewFromData(rows, cols, backing[:rows*cols])
}

// denseOf returns m itself when T is float64 and a converted copy otherwise.
func denseOf[T mat.Float](m *mat.Matrix) *mat.Dense[T] {
	if d, ok := any(m).(*mat.Dense[T]); ok {
		return d
	}
	d := mat.NewDense[T](m.Rows(), m.Cols())
	mat.Convert(d, m)
	return d
}

// newBatchBuffers builds a view set of the given row count over shared
// backing arrays (one per activation/delta width, each sized for the full
// batch).
func newBatchBuffers[T mat.Float](layers []*layer[T], rows int, actBack, deltaBack, maskBack [][]T, dropout bool) *batchBuffers[T] {
	bb := &batchBuffers[T]{rows: rows}
	bb.acts = make([]*mat.Dense[T], len(layers)+1)
	bb.acts[0] = view(rows, layers[0].In(), actBack[0])
	for i, l := range layers {
		bb.acts[i+1] = view(rows, l.Out(), actBack[i+1])
	}
	bb.deltas = make([]*mat.Dense[T], len(layers))
	for i, l := range layers {
		bb.deltas[i] = view(rows, l.Out(), deltaBack[i])
	}
	if dropout {
		bb.masks = make([]*mat.Dense[T], len(layers)+1)
		for i := 1; i < len(bb.acts)-1; i++ {
			bb.masks[i] = view(rows, layers[i-1].Out(), maskBack[i])
		}
	}
	return bb
}

// newTrainWorkspace preallocates every buffer Train needs: full-batch views,
// partial-batch views when partialRows > 0, per-layer gradients, and (when
// valRows > 0) the validation input over the tail of x plus inference
// ping-pong buffers.
func newTrainWorkspace[T mat.Float](layers []*layer[T], x *mat.Matrix, batch, partialRows, valFrom, valRows int, dropout bool) *trainWorkspace[T] {
	widths := make([]int, len(layers)+1)
	widths[0] = layers[0].In()
	for i, l := range layers {
		widths[i+1] = l.Out()
	}
	actBack := make([][]T, len(widths))
	for i, w := range widths {
		actBack[i] = make([]T, batch*w)
	}
	deltaBack := make([][]T, len(layers))
	for i, l := range layers {
		deltaBack[i] = make([]T, batch*l.Out())
	}
	var maskBack [][]T
	if dropout {
		maskBack = make([][]T, len(widths))
		for i := 1; i < len(widths)-1; i++ {
			maskBack[i] = make([]T, batch*widths[i])
		}
	}

	ws := &trainWorkspace[T]{
		full: newBatchBuffers(layers, batch, actBack, deltaBack, maskBack, dropout),
	}
	if partialRows > 0 {
		ws.partial = newBatchBuffers(layers, partialRows, actBack, deltaBack, maskBack, dropout)
	}
	ws.dW = make([]*mat.Dense[T], len(layers))
	ws.dB = make([][]T, len(layers))
	for i, l := range layers {
		ws.dW[i] = mat.NewDense[T](l.W.Rows(), l.W.Cols())
		ws.dB[i] = make([]T, len(l.B))
	}
	if valRows > 0 {
		cols := x.Cols()
		// The held-out tail rows [valFrom, valFrom+valRows) are contiguous in
		// row-major storage, so wrap them without copying.
		ws.valIn = denseOf[T](mat.NewFromData(valRows, cols, x.Data()[valFrom*cols:(valFrom+valRows)*cols]))
		ws.valBuf = newForwarder(layers, valRows)
	}
	return ws
}

// buffersFor returns the view set matching the batch row count.
func (ws *trainWorkspace[T]) buffersFor(rows int) *batchBuffers[T] {
	if rows == ws.full.rows {
		return ws.full
	}
	return ws.partial
}

// forwarder is the allocation-free inference path at element width T: two
// ping-pong activation buffers sized for the widest layer, with per-row-count
// layer views built on first use, so a forward pass that does not need
// backpropagation touches no allocator once its row count has been seen.
// Below float64 it also stages the float64 input and output (see input and
// output).
type forwarder[T mat.Float] struct {
	layers     []*layer[T]
	maxRows    int
	ping, pong []T
	in         []T       // input staging, float32 only
	out        []float64 // output staging, float32 only
	views      map[int]*rowViews[T]
}

// rowViews are a forwarder's matrix views for one row count.
type rowViews[T mat.Float] struct {
	in   *mat.Dense[T]
	acts []*mat.Dense[T] // acts[i] holds the activations of layer i
	out  *mat.Matrix
}

// newForwarder sizes ping-pong buffers for up to maxRows input rows.
func newForwarder[T mat.Float](layers []*layer[T], maxRows int) *forwarder[T] {
	f := &forwarder[T]{layers: layers}
	f.grow(maxRows)
	return f
}

// grow (re)allocates backing for the given capacity and drops cached views.
func (f *forwarder[T]) grow(maxRows int) {
	f.maxRows = maxRows
	// Each of the two buffers must fit the widest layer that lands on it.
	var even, odd int
	for i, l := range f.layers {
		w := maxRows * l.Out()
		if i%2 == 0 && w > even {
			even = w
		}
		if i%2 == 1 && w > odd {
			odd = w
		}
	}
	f.ping, f.pong = make([]T, even), make([]T, odd)
	if _, ok := any(f).(*forwarder[float64]); !ok {
		f.in = make([]T, maxRows*f.layers[0].In())
		f.out = make([]float64, maxRows*f.layers[len(f.layers)-1].Out())
	}
	f.views = make(map[int]*rowViews[T])
}

// viewsFor returns the views for a batch of rows, growing the buffers when
// the batch exceeds the current capacity.
func (f *forwarder[T]) viewsFor(rows int) *rowViews[T] {
	if rows > f.maxRows {
		f.grow(rows)
	}
	v, ok := f.views[rows]
	if !ok {
		v = &rowViews[T]{acts: make([]*mat.Dense[T], len(f.layers))}
		for i, l := range f.layers {
			backing := f.ping
			if i%2 == 1 {
				backing = f.pong
			}
			v.acts[i] = view(rows, l.Out(), backing)
		}
		if f.in != nil {
			v.in = view(rows, f.layers[0].In(), f.in)
			v.out = view(rows, f.layers[len(f.layers)-1].Out(), f.out)
		}
		f.views[rows] = v
	}
	return v
}

// run runs x through the layers and returns the output activations. With
// rawLogits set, a softmax output head is left as raw logits: softmax is
// strictly monotonic per row, so rankings over logits and probabilities
// agree. The result aliases the forwarder's buffers and is valid until the
// next call. Unlike ForwardBatch it keeps two ping-pong buffers instead of
// every layer's activations, so it is the right path whenever
// backpropagation is not needed (validation loss, Accuracy, Predict,
// InferSession).
func (f *forwarder[T]) run(x *mat.Dense[T], rawLogits bool) *mat.Dense[T] {
	if x.Cols() != f.layers[0].In() {
		panic("nn: input width mismatch")
	}
	acts := f.viewsFor(x.Rows()).acts
	cur := x
	last := len(f.layers) - 1
	for i, l := range f.layers {
		z := acts[i]
		mat.MulTo(z, cur, l.W)
		addBias(z, l.B)
		if !(rawLogits && i == last && l.Act == Softmax) {
			applyActivation(z, l.Act)
		}
		cur = z
	}
	return cur
}

// input returns x at element width T: x itself at float64, otherwise the
// forwarder's staging view holding the converted rows.
func (f *forwarder[T]) input(x *mat.Matrix) *mat.Dense[T] {
	if d, ok := any(x).(*mat.Dense[T]); ok {
		return d
	}
	in := f.viewsFor(x.Rows()).in
	mat.Convert(in, x)
	return in
}

// output returns z (a result of run) as float64: z itself at float64,
// otherwise the forwarder's staging view holding the converted rows.
func (f *forwarder[T]) output(z *mat.Dense[T]) *mat.Matrix {
	if d, ok := any(z).(*mat.Matrix); ok {
		return d
	}
	out := f.viewsFor(z.Rows()).out
	mat.Convert(out, z)
	return out
}
