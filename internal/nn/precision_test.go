package nn

import (
	"math"
	"math/rand"
	"testing"

	"extrapdnn/internal/mat"
)

// blobs returns a linearly separable 3-class dataset, the same shape of
// problem TestTrainSeparatesBlobs uses, for convergence comparisons.
func blobs(rng *rand.Rand, perClass int) (*mat.Matrix, []int) {
	centers := [][2]float64{{0, 0}, {4, 0}, {0, 4}}
	x := mat.New(3*perClass, 2)
	labels := make([]int, 3*perClass)
	for i := 0; i < 3*perClass; i++ {
		c := i % 3
		x.Set(i, 0, centers[c][0]+rng.NormFloat64()*0.5)
		x.Set(i, 1, centers[c][1]+rng.NormFloat64()*0.5)
		labels[i] = c
	}
	return x, labels
}

// TestTanh32Accuracy sweeps the active range and checks the float32
// approximation against the correctly rounded float64 tanh: a few ULPs at
// most, far inside the precision-path parity tolerance.
func TestTanh32Accuracy(t *testing.T) {
	for x := -12.0; x <= 12.0; x += 1e-3 {
		got := float64(mat.Tanh32(float32(x)))
		want := math.Tanh(x)
		if d := math.Abs(got - want); d > 5e-7 {
			t.Fatalf("Tanh32(%v) = %v, want %v (diff %v)", x, got, want, d)
		}
	}
	if mat.Tanh32(100) != 1 || mat.Tanh32(-100) != -1 || mat.Tanh32(0) != 0 {
		t.Fatal("Tanh32 saturation/zero broken")
	}
}

func TestPrecisionString(t *testing.T) {
	if Float64.String() != "float64" || Float32.String() != "float32" {
		t.Fatalf("Precision strings: %q %q", Float64, Float32)
	}
	if Precision(7).String() != "Precision(7)" {
		t.Fatalf("unknown precision: %q", Precision(7))
	}
}

// TestTrainFloat32Converges pins that the float32 engine actually learns: on
// a separable dataset it must reach the same near-perfect accuracy as the
// float64 path.
func TestTrainFloat32Converges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x, labels := blobs(rng, 60)
	net := NewNetwork([]int{2, 16, 3}, rand.New(rand.NewSource(12)))
	stats := net.Train(x, labels, TrainOptions{
		Epochs: 30, BatchSize: 16, Rng: rand.New(rand.NewSource(13)),
		Precision: Float32,
	})
	if stats.Diverged {
		t.Fatal("float32 training diverged on separable blobs")
	}
	if acc := net.Accuracy(x, labels); acc < 0.95 {
		t.Fatalf("float32 training accuracy %v, want >= 0.95", acc)
	}
	if len(stats.EpochLoss) != 30 {
		t.Fatalf("epochs recorded: %d", len(stats.EpochLoss))
	}
	if stats.FinalLoss() >= stats.EpochLoss[0] {
		t.Fatalf("loss did not decrease: %v -> %v", stats.EpochLoss[0], stats.FinalLoss())
	}
}

// TestTrainFloat32ParityWithFloat64 trains two identically initialized
// networks, one per precision, with identical options and rng seeds, and
// requires the loss trajectories and final weights to agree within a
// tolerance far below the measurement noise the models absorb — the contract
// of DESIGN.md §11 — while the structures (epochs, batches) match exactly,
// since both paths consume the rng identically.
func TestTrainFloat32ParityWithFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x, labels := blobs(rng, 50)

	run := func(p Precision) (*Network, TrainStats) {
		net := NewNetwork([]int{2, 24, 16, 3}, rand.New(rand.NewSource(22)))
		stats := net.Train(x, labels, TrainOptions{
			Epochs: 8, BatchSize: 32, Dropout: 0.1, ValidationFrac: 0.2,
			Rng: rand.New(rand.NewSource(23)), Precision: p,
		})
		return net, stats
	}
	net64, stats64 := run(Float64)
	net32, stats32 := run(Float32)

	if stats64.Batches != stats32.Batches || len(stats64.EpochLoss) != len(stats32.EpochLoss) {
		t.Fatalf("run structure differs: %d/%d batches, %d/%d epochs",
			stats64.Batches, stats32.Batches, len(stats64.EpochLoss), len(stats32.EpochLoss))
	}
	for e := range stats64.EpochLoss {
		d := math.Abs(stats64.EpochLoss[e] - stats32.EpochLoss[e])
		if d > 0.05*math.Abs(stats64.EpochLoss[e])+0.01 {
			t.Errorf("epoch %d loss diverged: float64 %v float32 %v", e, stats64.EpochLoss[e], stats32.EpochLoss[e])
		}
	}
	for i, l64 := range net64.Layers {
		l32 := net32.Layers[i]
		maxd := 0.0
		for j, w := range l64.W.Data() {
			if d := math.Abs(w - l32.W.Data()[j]); d > maxd {
				maxd = d
			}
		}
		for j, bv := range l64.B {
			if d := math.Abs(bv - l32.B[j]); d > maxd {
				maxd = d
			}
		}
		if maxd > 0.05 {
			t.Errorf("layer %d parameters diverged: max abs diff %v", i, maxd)
		}
	}
}

// TestTrainFloat32WritesBack pins the mirror-and-write-back mechanics: the
// float64 master weights must change after a float32 run, and every written
// value must be exactly representable in float32 (proof it came through the
// working copy).
func TestTrainFloat32WritesBack(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x, labels := blobs(rng, 20)
	net := NewNetwork([]int{2, 8, 3}, rand.New(rand.NewSource(32)))
	before := net.Clone()
	net.Train(x, labels, TrainOptions{Epochs: 2, BatchSize: 16, Rng: rand.New(rand.NewSource(33)), Precision: Float32})
	changed := false
	for i, l := range net.Layers {
		for j, w := range l.W.Data() {
			if w != before.Layers[i].W.Data()[j] {
				changed = true
			}
			if float64(float32(w)) != w {
				t.Fatalf("layer %d weight %d not float32-representable: %v", i, j, w)
			}
		}
	}
	if !changed {
		t.Fatal("float32 training left the float64 master unchanged")
	}
}

// TestInferSessionMatchesPredict pins the batching determinism contract: a
// float64 session computes each row with the exact accumulation order of
// Predict, so batched and per-row inference are bit-identical. This is what
// lets the modelers batch classification rows without perturbing any golden
// output.
func TestInferSessionMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	net := NewNetwork([]int{7, 20, 13, 5}, rng)
	x := mat.New(9, 7)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	s := net.NewInferSession(9, Float64)
	out := s.Forward(x)
	for r := 0; r < x.Rows(); r++ {
		want := net.Predict(x.Row(r))
		got := out.Row(r)
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("row %d col %d: batched %v per-row %v (must be bit-identical)", r, c, got[c], want[c])
			}
		}
	}

}

// TestInferSessionFloat32Parity checks the float32 session against the
// float64 output within the kernel rounding tolerance.
func TestInferSessionFloat32Parity(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	net := NewNetwork([]int{11, 64, 48, 43}, rng)
	x := mat.New(32, 11)
	for i := range x.Data() {
		x.Data()[i] = rng.Float64()
	}
	want := net.NewInferSession(32, Float64).Forward(x)
	got := net.NewInferSession(32, Float32).Forward(x)
	for i, v := range got.Data() {
		if d := math.Abs(v - want.Data()[i]); d > 1e-3 {
			t.Fatalf("element %d: float32 %v float64 %v (diff %v)", i, v, want.Data()[i], d)
		}
	}
}

// TestInferSessionGrowAndVaryingRows exercises the row-count view cache and
// transparent growth: different batch sizes through one session, including
// one larger than the construction capacity.
func TestInferSessionGrowAndVaryingRows(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	net := NewNetwork([]int{4, 10, 3}, rng)
	for _, prec := range []Precision{Float64, Float32} {
		s := net.NewInferSession(4, prec)
		for _, rows := range []int{4, 1, 9, 4, 9} {
			x := mat.New(rows, 4)
			for i := range x.Data() {
				x.Data()[i] = rng.NormFloat64()
			}
			out := s.Forward(x)
			if out.Rows() != rows || out.Cols() != 3 {
				t.Fatalf("%v rows=%d: got %dx%d", prec, rows, out.Rows(), out.Cols())
			}
			for r := 0; r < rows; r++ {
				sum := 0.0
				for _, p := range out.Row(r) {
					sum += p
				}
				if math.Abs(sum-1) > 1e-6 {
					t.Fatalf("%v rows=%d row %d: probabilities sum to %v", prec, rows, r, sum)
				}
			}
		}
		var maxRows int
		if prec == Float32 {
			maxRows = s.f32.maxRows
		} else {
			maxRows = s.f64.maxRows
		}
		if maxRows != 9 {
			t.Fatalf("session did not grow: maxRows %d", maxRows)
		}
	}
}

// TestInferSessionZeroAlloc is the steady-state allocation gate of the
// batched inference path (enforced again by scripts/check.sh): once a row
// count has been seen, Forward must not touch the heap at either precision.
func TestInferSessionZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	net := NewNetwork([]int{11, 64, 48, 43}, rng)
	x := mat.New(64, 11)
	for i := range x.Data() {
		x.Data()[i] = rng.Float64()
	}
	for _, prec := range []Precision{Float64, Float32} {
		s := net.NewInferSession(64, prec)
		s.Forward(x) // warm the view cache
		allocs := testing.AllocsPerRun(50, func() { s.Forward(x) })
		if allocs != 0 {
			t.Errorf("%v: %v allocs/op in steady state, want 0", prec, allocs)
		}
	}
}

// TestTopKSelectMatchesTopK pins that the batched ranking helper returns
// exactly what Network.TopK returns for each row.
func TestTopKSelectMatchesTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	net := NewNetwork([]int{6, 12, 9}, rng)
	scratch := make([]int, 9)
	for trial := 0; trial < 20; trial++ {
		in := make([]float64, 6)
		for i := range in {
			in[i] = rng.NormFloat64()
		}
		probs := net.Predict(in)
		for k := 0; k <= 9; k++ {
			want := net.TopK(in, k)
			got := TopKSelect(probs, k, scratch)
			if len(got) != len(want) {
				t.Fatalf("k=%d: len %d vs %d", k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d pos %d: TopKSelect %d TopK %d", k, i, got[i], want[i])
				}
			}
		}
	}
	if got := TopKSelect([]float64{0.2, 0.5, 0.3}, 2, nil); got[0] != 1 || got[1] != 2 {
		t.Fatalf("nil scratch: got %v", got)
	}
}

// TestTopKBatchMatchesTopK pins the batched classification contracts: a
// float64 session must return exactly Network.TopK for every row (the golden
// pin), and a float32 session's logit ranking must agree with ranking its own
// softmax output — softmax is monotonic, so skipping it cannot reorder.
func TestTopKBatchMatchesTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	net := NewNetwork([]int{11, 64, 48, 43}, rng)
	x := mat.New(17, 11)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	for _, k := range []int{0, 1, 3, 43} {
		s64 := net.NewInferSession(17, Float64)
		got := s64.TopKBatch(x, k)
		if len(got) != 17 {
			t.Fatalf("k=%d: %d rows", k, len(got))
		}
		for r := range got {
			want := net.TopK(x.Row(r), k)
			if len(got[r]) != len(want) {
				t.Fatalf("k=%d row %d: len %d want %d", k, r, len(got[r]), len(want))
			}
			for i := range want {
				if got[r][i] != want[i] {
					t.Fatalf("k=%d row %d pos %d: batched %d per-row %d (must be bit-identical)", k, r, i, got[r][i], want[i])
				}
			}
		}
	}

	s32 := net.NewInferSession(17, Float32)
	probs := s32.Forward(x).Clone()
	classes := s32.TopKBatch(x, 3)
	for r := range classes {
		want := TopKSelect(probs.Row(r), 3, nil)
		for i := range want {
			if classes[r][i] != want[i] {
				t.Fatalf("float32 row %d pos %d: logit rank %d prob rank %d", r, i, classes[r][i], want[i])
			}
		}
	}
}

// TestTopKBatchZeroAlloc extends the steady-state allocation gate to the
// classification path at both precisions.
func TestTopKBatchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	net := NewNetwork([]int{11, 64, 48, 43}, rng)
	x := mat.New(64, 11)
	for i := range x.Data() {
		x.Data()[i] = rng.Float64()
	}
	for _, prec := range []Precision{Float64, Float32} {
		s := net.NewInferSession(64, prec)
		s.TopKBatch(x, 3) // warm caches and scratch
		allocs := testing.AllocsPerRun(50, func() { s.TopKBatch(x, 3) })
		if allocs != 0 {
			t.Errorf("%v: %v allocs/op in steady state, want 0", prec, allocs)
		}
	}
}
