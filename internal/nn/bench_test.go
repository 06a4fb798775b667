package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"extrapdnn/internal/mat"
)

// benchNet mirrors the pretraining benchmark topology (11 inputs, 43
// classes). The layer products stay below mat's parallelThreshold so the
// kernels run serially and the allocation counts below hold on any machine.
func benchNet(rng *rand.Rand) *Network {
	return NewNetwork([]int{11, 64, 48, 43}, rng)
}

func benchData(rng *rand.Rand, rows int) (*mat.Matrix, []int) {
	x := mat.New(rows, 11)
	labels := make([]int, rows)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	for i := range labels {
		labels[i] = rng.Intn(43)
	}
	return x, labels
}

// BenchmarkTrainBatch measures one steady-state optimizer step on the
// preallocated workspace. The regression target is 0 allocs/op: the batch
// loop must never touch the heap once the one-time workspace setup is done.
func BenchmarkTrainBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := benchNet(rng)
	const batchSize = 64
	x, labels := benchData(rng, 4*batchSize)
	states := newOptStates(net.Layers)
	opts := TrainOptions{BatchSize: batchSize}.withDefaults()
	ws := newTrainWorkspace(net.Layers, x, batchSize, 0, 0, 0, false)
	batch := make([]int, batchSize)
	for i := range batch {
		batch[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainBatch(net.Layers, x, labels, batch, states, opts, rng, ws)
	}
}

// BenchmarkTrainBatchDropout exercises the mask path of the workspace; it
// must stay allocation-free too.
func BenchmarkTrainBatchDropout(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	net := benchNet(rng)
	const batchSize = 64
	x, labels := benchData(rng, 4*batchSize)
	states := newOptStates(net.Layers)
	opts := TrainOptions{BatchSize: batchSize, Dropout: 0.2}.withDefaults()
	ws := newTrainWorkspace(net.Layers, x, batchSize, 0, 0, 0, true)
	batch := make([]int, batchSize)
	for i := range batch {
		batch[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainBatch(net.Layers, x, labels, batch, states, opts, rng, ws)
	}
}

// BenchmarkForwardInference measures the ping-pong inference path on reused
// buffers — the validation-loss fast path. 0 allocs/op in steady state.
func BenchmarkForwardInference(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	net := benchNet(rng)
	x, _ := benchData(rng, 256)
	buf := newForwarder(net.Layers, x.Rows())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.run(x, false)
	}
}

// BenchmarkTrainEpochs is the end-to-end Train comparison point recorded in
// docs/PERFORMANCE.md (setup included, measured per full Train call).
func BenchmarkTrainEpochs(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x, labels := benchData(rng, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := benchNet(rand.New(rand.NewSource(5)))
		net.Train(x, labels, TrainOptions{Epochs: 2, BatchSize: 64, Rng: rand.New(rand.NewSource(6))})
	}
}

// BenchmarkTrainEpochsF32 is BenchmarkTrainEpochs at Float32 precision — the
// precision fast-path speedup recorded in docs/PERFORMANCE.md is the ratio of
// the two.
func BenchmarkTrainEpochsF32(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x, labels := benchData(rng, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := benchNet(rand.New(rand.NewSource(5)))
		net.Train(x, labels, TrainOptions{Epochs: 2, BatchSize: 64, Rng: rand.New(rand.NewSource(6)), Precision: Float32})
	}
}

// BenchmarkForwardBatched measures the InferSession batched-inference path at
// representative batch sizes and both precisions: rows=1 is the historical
// per-line classification cost, rows=64 a typical profile entry, rows=1024 a
// large batch. 0 allocs/op in steady state at every size — that is the
// point of the session's cached views (enforced by check.sh).
func BenchmarkForwardBatched(b *testing.B) {
	for _, rows := range []int{1, 64, 1024} {
		for _, prec := range []Precision{Float64, Float32} {
			b.Run(fmt.Sprintf("rows=%d/%s", rows, prec), func(b *testing.B) {
				rng := rand.New(rand.NewSource(7))
				net := benchNet(rng)
				x, _ := benchData(rng, rows)
				s := net.NewInferSession(rows, prec)
				s.Forward(x)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Forward(x)
				}
			})
		}
	}
}

// BenchmarkTopKPerRow is the legacy classification baseline: Network.TopK on
// each row separately, exactly what the per-line classification loop did
// before the batched path existed. Every call re-runs the network through
// freshly allocated per-layer buffers — this is the "before" column of the
// batched inference speedup in docs/PERFORMANCE.md.
func BenchmarkTopKPerRow(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	net := benchNet(rng)
	x, _ := benchData(rng, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < x.Rows(); r++ {
			net.TopK(x.Row(r), 3)
		}
	}
}

// BenchmarkTopKBatch measures the batched classification path (forward plus
// per-row top-k ranking) at both precisions. The float32 variant ranks raw
// logits on the SIMD forward; its per-row cost against BenchmarkTopKPerRow is
// the headline batched-inference speedup.
func BenchmarkTopKBatch(b *testing.B) {
	for _, rows := range []int{64, 1024} {
		for _, prec := range []Precision{Float64, Float32} {
			b.Run(fmt.Sprintf("rows=%d/%s", rows, prec), func(b *testing.B) {
				rng := rand.New(rand.NewSource(9))
				net := benchNet(rng)
				x, _ := benchData(rng, rows)
				s := net.NewInferSession(rows, prec)
				s.TopKBatch(x, 3)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.TopKBatch(x, 3)
				}
			})
		}
	}
}

// BenchmarkForwardPerRow is the unbatched baseline for the batched-inference
// speedup table: the same total rows as BenchmarkForwardBatched/rows=64, but
// fed through the session one row at a time the way the per-line
// classification loop used to.
func BenchmarkForwardPerRow(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	net := benchNet(rng)
	x, _ := benchData(rng, 64)
	s := net.NewInferSession(1, Float64)
	rowViews := make([]*mat.Matrix, x.Rows())
	for r := range rowViews {
		rowViews[r] = mat.NewFromData(1, x.Cols(), x.Row(r))
	}
	s.Forward(rowViews[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rv := range rowViews {
			s.Forward(rv)
		}
	}
}
