package mat

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// kernelShape is one (m, k, n) product: MulTo multiplies m×k by k×n,
// MulATTo contracts an m×k and an m×n operand, and MulBTTo an m×k and an
// n×k operand.
type kernelShape struct{ m, k, n int }

// Layer widths of dnnmodel.DefaultTopology and dnnmodel.PaperTopology,
// including the 11-wide input encoding and the 43-class softmax head (mat
// cannot import dnnmodel, which depends on it).
var (
	defaultWidths = []int{11, 256, 256, 128, 64, 64, 43}
	paperWidths   = []int{11, 1500, 1500, 750, 250, 250, 43}
)

// trainingShapes returns the products one training step runs on each layer
// (forward in→out; the weight gradient and the backpropagated delta run the
// same dimensions, the delta with k and n swapped) at the full batch of 64,
// and for the default topology also at a partial-batch tail, plus odd tails
// around the four-wide unroll and the eight-lane SIMD stripes. The paper
// topology is left out in short mode.
func trainingShapes(short bool) []kernelShape {
	var shapes []kernelShape
	layers := func(widths []int, batches ...int) {
		for _, batch := range batches {
			for i := 0; i+1 < len(widths); i++ {
				in, out := widths[i], widths[i+1]
				shapes = append(shapes, kernelShape{batch, in, out}, kernelShape{batch, out, in})
			}
		}
	}
	layers(defaultWidths, 64, 37)
	if !short {
		layers(paperWidths, 64)
	}
	odd := []int{1, 3, 5, 7, 9}
	for _, m := range []int{1, 6} {
		for _, k := range odd {
			for _, n := range odd {
				shapes = append(shapes, kernelShape{m, k, n})
			}
		}
	}
	return shapes
}

// pinnedDot is the reference association of every float64 kernel: the n
// products x[k*xs]·y[k*ys] in chunks of four, each chunk summed left to
// right before it is added to the running sum, then single leftovers.
func pinnedDot(n int, x []float64, xs int, y []float64, ys int) float64 {
	s := 0.0
	k := 0
	for ; k+4 <= n; k += 4 {
		s += x[k*xs]*y[k*ys] + x[(k+1)*xs]*y[(k+1)*ys] + x[(k+2)*xs]*y[(k+2)*ys] + x[(k+3)*xs]*y[(k+3)*ys]
	}
	for ; k < n; k++ {
		s += x[k*xs] * y[k*ys]
	}
	return s
}

// TestKernelBitIdentity pins every float64 kernel bit for bit to a naive
// reference written with the pinned association, at the training shapes of
// both topologies, on the serial path and on a forced parallelRows split.
func TestKernelBitIdentity(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // give parallelRows real splits on any host
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(11))
	type kernel struct {
		name         string
		rows, cols   func(s kernelShape) (int, int) // output shape
		aDims, bDims func(s kernelShape) (int, int)
		run          func(out, a, b *Matrix, lo, hi int)
		ref          func(a, b *Matrix, i, j int) float64
	}
	kernels := []kernel{
		{
			name:  "MulTo",
			rows:  func(s kernelShape) (int, int) { return s.m, s.n },
			aDims: func(s kernelShape) (int, int) { return s.m, s.k },
			bDims: func(s kernelShape) (int, int) { return s.k, s.n },
			run:   mulRange[float64],
			ref: func(a, b *Matrix, i, j int) float64 {
				return pinnedDot(a.cols, a.Row(i), 1, b.data[j:], b.cols)
			},
		},
		{
			name:  "MulATTo",
			rows:  func(s kernelShape) (int, int) { return s.k, s.n },
			aDims: func(s kernelShape) (int, int) { return s.m, s.k },
			bDims: func(s kernelShape) (int, int) { return s.m, s.n },
			run:   mulATRange[float64],
			ref: func(a, b *Matrix, i, j int) float64 {
				return pinnedDot(a.rows, a.data[i:], a.cols, b.data[j:], b.cols)
			},
		},
		{
			name:  "MulBTTo",
			rows:  func(s kernelShape) (int, int) { return s.m, s.n },
			aDims: func(s kernelShape) (int, int) { return s.m, s.k },
			bDims: func(s kernelShape) (int, int) { return s.n, s.k },
			run:   mulBTRange[float64],
			ref: func(a, b *Matrix, i, j int) float64 {
				return pinnedDot(a.cols, a.Row(i), 1, b.Row(j), 1)
			},
		},
	}
	for _, s := range trainingShapes(testing.Short()) {
		for _, kn := range kernels {
			ar, ac := kn.aDims(s)
			br, bc := kn.bDims(s)
			a, b := randomMatrix(rng, ar, ac), randomMatrix(rng, br, bc)
			rows, cols := kn.rows(s)
			serial := New(rows, cols)
			kn.run(serial, a, b, 0, rows)
			split := New(rows, cols)
			parallelRows(rows, func(lo, hi int) { kn.run(split, a, b, lo, hi) })
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					want := math.Float64bits(kn.ref(a, b, i, j))
					if got := math.Float64bits(serial.At(i, j)); got != want {
						t.Fatalf("%s %+v serial (%d,%d): %x, reference %x", kn.name, s, i, j, got, want)
					}
					if got := math.Float64bits(split.At(i, j)); got != want {
						t.Fatalf("%s %+v parallel (%d,%d): %x, reference %x", kn.name, s, i, j, got, want)
					}
				}
			}
		}
	}
}
