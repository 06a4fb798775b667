package nn

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"extrapdnn/internal/mat"
)

func TestNewNetworkShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork([]int{11, 20, 10, 43}, rng)
	if len(net.Layers) != 3 {
		t.Fatalf("%d layers", len(net.Layers))
	}
	if net.InputSize() != 11 || net.OutputSize() != 43 {
		t.Fatalf("in/out = %d/%d", net.InputSize(), net.OutputSize())
	}
	if net.Layers[0].Act != Tanh || net.Layers[2].Act != Softmax {
		t.Fatal("default activations wrong")
	}
	want := 11*20 + 20 + 20*10 + 10 + 10*43 + 43
	if net.NumParams() != want {
		t.Fatalf("NumParams = %d, want %d", net.NumParams(), want)
	}
}

func TestNewNetworkPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sizes := range [][]int{{5}, {5, 0, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("sizes %v should panic", sizes)
				}
			}()
			NewNetwork(sizes, rng)
		}()
	}
}

func TestGlorotInitBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewNetwork([]int{100, 50, 10}, rng)
	r := math.Sqrt(6.0 / 150.0)
	for _, v := range net.Layers[0].W.Data() {
		if math.Abs(v) > r {
			t.Fatalf("weight %v outside Glorot bound %v", v, r)
		}
	}
	for _, b := range net.Layers[0].B {
		if b != 0 {
			t.Fatal("biases should start at zero")
		}
	}
}

func TestSoftmaxRow(t *testing.T) {
	row := []float64{1, 2, 3}
	softmaxRow(row)
	sum := row[0] + row[1] + row[2]
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax sums to %v", sum)
	}
	if !(row[2] > row[1] && row[1] > row[0]) {
		t.Fatal("softmax not monotone")
	}
	// Numerical stability with huge logits.
	big := []float64{1000, 1001, 1002}
	softmaxRow(big)
	for _, v := range big {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("softmax overflowed")
		}
	}
}

func TestForwardKnownWeights(t *testing.T) {
	// One linear layer: y = x·W + b.
	net := &Network{Layers: []*Layer{{
		W:   mat.NewFromRows([][]float64{{1, 0}, {0, 2}}),
		B:   []float64{0.5, -0.5},
		Act: Linear,
	}}}
	out := net.Predict([]float64{3, 4})
	if math.Abs(out[0]-3.5) > 1e-12 || math.Abs(out[1]-7.5) > 1e-12 {
		t.Fatalf("out = %v", out)
	}
}

func TestForwardBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewNetwork([]int{4, 8, 3}, rng)
	x := mat.New(5, 4)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	acts := net.ForwardBatch(x)
	out := acts[len(acts)-1]
	for r := 0; r < 5; r++ {
		single := net.Predict(x.Row(r))
		for c := range single {
			if math.Abs(single[c]-out.At(r, c)) > 1e-12 {
				t.Fatalf("batch/single mismatch at row %d", r)
			}
		}
	}
}

func TestForwardBatchWrongWidthPanics(t *testing.T) {
	net := NewNetwork([]int{4, 3}, rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.ForwardBatch(mat.New(2, 5))
}

func TestPredictClassAndTopK(t *testing.T) {
	// Identity-ish network that just passes through 3 inputs via linear layer.
	net := &Network{Layers: []*Layer{{
		W:   mat.NewFromRows([][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}),
		B:   make([]float64, 3),
		Act: Softmax,
	}}}
	x := []float64{0.1, 0.9, 0.5}
	top := net.TopK(x, 2)
	if top[0] != 1 || top[1] != 2 {
		t.Fatalf("TopK = %v", top)
	}
	if len(net.TopK(x, 99)) != 3 {
		t.Fatal("TopK should clamp k")
	}
}

func TestCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := NewNetwork([]int{3, 4, 2}, rng)
	c := net.Clone()
	c.Layers[0].W.Set(0, 0, 99)
	c.Layers[0].B[0] = 99
	if net.Layers[0].W.At(0, 0) == 99 || net.Layers[0].B[0] == 99 {
		t.Fatal("Clone shares storage")
	}
}

func TestActivationStrings(t *testing.T) {
	if Tanh.String() != "tanh" || Softmax.String() != "softmax" ||
		Linear.String() != "linear" || ReLU.String() != "relu" {
		t.Fatal("activation names wrong")
	}
	if !strings.Contains(Activation(42).String(), "42") {
		t.Fatal("unknown activation should render its value")
	}
}

func TestAccuracy(t *testing.T) {
	net := &Network{Layers: []*Layer{{
		W:   mat.NewFromRows([][]float64{{1, 0}, {0, 1}}),
		B:   make([]float64, 2),
		Act: Softmax,
	}}}
	x := mat.NewFromRows([][]float64{{2, 0}, {0, 2}, {3, 1}})
	if acc := net.Accuracy(x, []int{0, 1, 0}); acc != 1 {
		t.Fatalf("accuracy = %v", acc)
	}
	if acc := net.Accuracy(x, []int{1, 0, 1}); acc != 0 {
		t.Fatalf("accuracy = %v", acc)
	}
	if net.Accuracy(mat.New(0, 2), nil) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewNetwork([]int{6, 10, 4}, rng)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	a, b := net.Predict(x), loaded.Predict(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("predictions differ after round trip: %v vs %v", a, b)
		}
	}
	if loaded.Layers[1].Act != Softmax {
		t.Fatal("activation lost in round trip")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("short"))); err == nil {
		t.Fatal("truncated input should fail")
	}
	if _, err := Load(bytes.NewReader([]byte("notmagic........."))); err == nil {
		t.Fatal("bad magic should fail")
	}
	// Valid magic, truncated body.
	var buf bytes.Buffer
	net := NewNetwork([]int{3, 2}, rand.New(rand.NewSource(1)))
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-9]
	if _, err := Load(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated body should fail")
	}
}
