package nn

import (
	"fmt"

	"extrapdnn/internal/mat"
)

// InferSession is the reusable batched-inference path: one session owns
// ping-pong activation buffers sized for a maximum row count plus per-row-count
// cached matrix views, so repeated Forward calls — even with varying batch
// sizes — perform zero heap allocations once each row count has been seen
// (pinned by TestInferSessionZeroAlloc and the check.sh alloc gate). Sessions
// are not safe for concurrent use; create one per goroutine.
//
// A Float64 session computes each output row independently with exactly the
// accumulation order of Predict, so batching rows through Forward is
// bit-identical to calling Predict per row (pinned by
// TestInferSessionMatchesPredict). A Float32 session converts the weights to
// float32 once at construction and runs the same forward pass at float32,
// trading ~1e-3 relative rounding for about half the memory traffic
// (DESIGN.md §11).
type InferSession struct {
	net *Network
	// Exactly one forwarder is set, matching the session's precision.
	f64 *forwarder[float64]
	f32 *forwarder[float32]

	// Classification scratch: TopKBatch's ranking index buffer and the arena
	// its per-row class slices point into, reused across calls.
	idxScratch []int
	classBack  []int
	classRows  [][]int
}

// NewInferSession builds a session able to forward up to maxRows input rows
// per call without allocating. Forward grows the buffers transparently if a
// larger batch arrives, so maxRows is a sizing hint, not a hard limit. A
// Float32 session snapshots the weights at construction; retrain the network
// and the session must be rebuilt.
func (n *Network) NewInferSession(maxRows int, prec Precision) *InferSession {
	if maxRows < 1 {
		maxRows = 1
	}
	s := &InferSession{net: n}
	if prec == Float32 {
		layers, _ := workingLayers[float32](n)
		s.f32 = newForwarder(layers, maxRows)
	} else {
		s.f64 = newForwarder(n.Layers, maxRows)
	}
	return s
}

// check validates a batch before it reaches the forwarders.
func (s *InferSession) check(x *mat.Matrix, caller string) {
	if x.Rows() == 0 {
		panic("nn: InferSession." + caller + " on empty batch")
	}
	if x.Cols() != s.net.InputSize() {
		panic(fmt.Sprintf("nn: input width %d, network expects %d", x.Cols(), s.net.InputSize()))
	}
}

// Forward runs every row of x through the network and returns the output
// activations (class probabilities for a softmax head) as an x.Rows()×output
// matrix. The result aliases session buffers and is valid until the next
// Forward call on the same session.
func (s *InferSession) Forward(x *mat.Matrix) *mat.Matrix {
	s.check(x, "Forward")
	if s.f32 != nil {
		return s.f32.output(s.f32.run(s.f32.input(x), false))
	}
	return s.f64.run(x, false)
}

// TopKBatch classifies every row of x, returning the k most probable class
// indices per row, most probable first. The returned slices alias session
// scratch and are valid until the next TopKBatch call.
//
// A Float64 session ranks the softmax probabilities of Forward, so each row's
// classes are bit-identical to Network.TopK on that row — batching the
// modelers' classification never perturbs a golden output. A Float32 session
// ranks the raw output logits instead (softmax preserves order), which skips
// the exp/normalize pass and the float64 conversion.
func (s *InferSession) TopKBatch(x *mat.Matrix, k int) [][]int {
	s.check(x, "TopKBatch")
	rows := x.Rows()
	nOut := s.net.OutputSize()
	if k > nOut {
		k = nOut
	}
	if cap(s.idxScratch) < nOut {
		s.idxScratch = make([]int, nOut)
	}
	if cap(s.classBack) < rows*k {
		s.classBack = make([]int, rows*k)
	}
	if cap(s.classRows) < rows {
		s.classRows = make([][]int, rows)
	}
	res := s.classRows[:rows]
	if s.f32 != nil {
		rankRows(s.f32.run(s.f32.input(x), true), k, res, s.classBack, s.idxScratch)
	} else {
		rankRows(s.f64.run(x, false), k, res, s.classBack, s.idxScratch)
	}
	return res
}

// rankRows stores the top k class indices of every row of scores in res,
// backed by back (at least len(res)*k long), using idx as ranking scratch.
func rankRows[T mat.Float](scores *mat.Dense[T], k int, res [][]int, back, idx []int) {
	for r := range res {
		row := back[r*k : r*k+k : r*k+k]
		copy(row, TopKSelect(scores.Row(r), k, idx))
		res[r] = row
	}
}

// TopKSelect writes the k most probable class indices of probs into the
// returned slice, most probable first, reusing idx as scratch when it has
// capacity for len(probs) entries (pass nil to allocate). k is clamped to
// len(probs). It is the batched counterpart of Network.TopK: callers forward
// a whole batch and rank each row without re-running the network per row.
func TopKSelect[T mat.Float](probs []T, k int, idx []int) []int {
	if k > len(probs) {
		k = len(probs)
	}
	if cap(idx) < len(probs) {
		idx = make([]int, len(probs))
	}
	idx = idx[:len(probs)]
	for i := range idx {
		idx[i] = i
	}
	// Partial selection sort, same as Network.TopK: k is tiny compared to the
	// class count.
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
