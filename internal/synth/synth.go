// Package synth generates the synthetic performance data used to train the
// DNN modeler and to evaluate both modelers (Sections IV-D and V of the
// paper): PMNF functions with random exponents and coefficients, realistic
// parameter-value sequences, uniform measurement noise, and simulated
// measurement repetitions reduced to their median.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"extrapdnn/internal/measurement"
	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/stats"
)

// SequenceKind selects the family of parameter-value sequences, imitating
// the kinds of execution-parameter scalings found in real applications.
type SequenceKind int

const (
	// Linear sequences such as (10, 20, 30, 40, 50).
	Linear SequenceKind = iota
	// SmallLinear sequences with small starts and strides, e.g. (2, 4, 6, 8, 10).
	SmallLinear
	// SmallExponential sequences doubling each step, e.g. (4, 8, 16, 32, 64).
	SmallExponential
	// Exponential sequences growing by a larger factor, e.g. (8, 64, 512, 4096, 32768).
	Exponential
	// UniformRandom sequences of sorted distinct values drawn uniformly from a range.
	UniformRandom

	numSequenceKinds
)

// String returns the sequence-kind name.
func (k SequenceKind) String() string {
	switch k {
	case Linear:
		return "linear"
	case SmallLinear:
		return "small-linear"
	case SmallExponential:
		return "small-exponential"
	case Exponential:
		return "exponential"
	case UniformRandom:
		return "uniform-random"
	default:
		return fmt.Sprintf("SequenceKind(%d)", int(k))
	}
}

// RandomSequenceKind draws a sequence kind uniformly.
func RandomSequenceKind(rng *rand.Rand) SequenceKind {
	return SequenceKind(rng.Intn(int(numSequenceKinds)))
}

// GenSequence generates a strictly increasing sequence of count positive
// parameter values of the given kind. Longer counts extend the same rule, so
// extrapolation points can be produced by generating count+4 values and
// splitting.
func GenSequence(rng *rand.Rand, kind SequenceKind, count int) []float64 {
	return GenSequenceInto(nil, rng, kind, count)
}

// GenSequenceInto is GenSequence writing into dst's storage when its capacity
// suffices, so callers with a reusable scratch buffer generate without
// allocating. It returns the sequence (length count), which aliases dst when
// no growth was needed, and consumes the rng identically to GenSequence.
func GenSequenceInto(dst []float64, rng *rand.Rand, kind SequenceKind, count int) []float64 {
	if count <= 0 {
		return nil
	}
	if cap(dst) < count {
		dst = make([]float64, count)
	}
	out := dst[:count]
	switch kind {
	case Linear:
		start := float64(10 * (1 + rng.Intn(10)))
		stride := float64(10 * (1 + rng.Intn(10)))
		for i := range out {
			out[i] = start + stride*float64(i)
		}
	case SmallLinear:
		start := float64(1 + rng.Intn(8))
		stride := float64(1 + rng.Intn(8))
		for i := range out {
			out[i] = start + stride*float64(i)
		}
	case SmallExponential:
		start := float64(int(2) << rng.Intn(3)) // 2, 4, or 8
		v := start
		for i := range out {
			out[i] = v
			v *= 2
		}
	case Exponential:
		factor := float64(int(4) << rng.Intn(2)) // 4 or 8
		v := factor
		for i := range out {
			out[i] = v
			v *= factor
		}
	case UniformRandom:
		// Sorted distinct uniform draws; extension continues with the same
		// average spacing so extrapolation points stay ordered. Draw-until-
		// distinct with a sorted insert into the output keeps the draw
		// sequence (and thus the result) identical to the historical
		// map-and-sort construction without its allocations.
		lo := 1 + rng.Float64()*10
		hi := lo + 50 + rng.Float64()*1000
		n := 0
		for n < count {
			v := lo + rng.Float64()*(hi-lo)
			v = float64(int(v)) + 1 // integer-valued parameters, >= 1
			pos, dup := n, false
			for pos > 0 && out[pos-1] >= v {
				if out[pos-1] == v {
					dup = true
					break
				}
				pos--
			}
			if dup {
				continue
			}
			copy(out[pos+1:n+1], out[pos:n])
			out[pos] = v
			n++
		}
	default:
		panic(fmt.Sprintf("synth: unknown sequence kind %d", kind))
	}
	return out
}

// NoiseFactor returns a multiplicative noise factor for one measured value:
// 1 + level*(U-0.5) with U uniform on [0,1), so a level of 0.10 perturbs by
// up to ±5% (the paper's convention).
func NoiseFactor(rng *rand.Rand, level float64) float64 {
	return 1 + level*(rng.Float64()-0.5)
}

// CoeffMin and CoeffMax bound the uniform coefficient distribution of the
// synthetic functions (Section IV-D).
const (
	CoeffMin = 0.001
	CoeffMax = 1000
)

// genCoeff draws a coefficient uniformly from [CoeffMin, CoeffMax].
func genCoeff(rng *rand.Rand) float64 {
	return CoeffMin + rng.Float64()*(CoeffMax-CoeffMin)
}

// minTermVisibility is the smallest contribution a non-constant term must
// make, relative to the function's overall scale across the sampled points,
// for the generated function to count as carrying its nominal complexity
// class. Without this constraint a draw like f = 900 + 0.01*x^(1/4) is
// labeled x^(1/4) although it is indistinguishable from a constant over any
// realistic measurement range — label noise that no modeler could overcome
// and that the paper's near-perfect low-noise accuracy rules out.
const minTermVisibility = 0.25

// termSpan returns max-min of c1*e.Eval over the positions.
func termSpan(e pmnf.Exponents, c1 float64, xs []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		v := c1 * e.Eval(x)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}

// LineSample is one single-parameter training sample for the DNN: the
// parameter values of the line, the median measured values after simulated
// repetitions, and the exponent class that generated it.
type LineSample struct {
	Xs     []float64
	Values []float64
	Class  int
}

// GenLineSampleOpts generates one training sample of the given class. When
// xs is nil a random sequence of 5–11 points is drawn; otherwise the provided
// parameter values are used (domain adaptation uses the task's own values).
// Noise levels are drawn uniformly from [noiseLo, noiseHi]: with
// perPointNoise each measurement point gets its own level, mirroring
// campaigns whose run-to-run variability differs per configuration;
// otherwise one level covers the whole line. reps values are sampled per
// point and reduced to their median (reps >= 1). It is the allocating
// reference that LineWorkspace.GenLine is tested against.
func GenLineSampleOpts(rng *rand.Rand, class int, xs []float64, reps int, noiseLo, noiseHi float64, perPointNoise bool) LineSample {
	var w LineWorkspace
	gxs, values := w.GenLine(rng, class, xs, reps, noiseLo, noiseHi, perPointNoise)
	return LineSample{Xs: gxs, Values: values, Class: class}
}

// LineWorkspace holds the reusable scratch buffers for allocation-free line
// generation: the generated parameter sequence, the per-point median values,
// and the simulated-repetition buffer. The zero value is ready to use. A
// workspace serves one goroutine at a time; the dataset builder keeps one per
// worker.
type LineWorkspace struct {
	seq  []float64
	vals []float64
	reps []float64
}

// GenLine generates one training line exactly like GenLineSampleOpts — same
// rng consumption, bit-identical values — but writes into the workspace
// buffers instead of allocating fresh slices per sample. The returned slices
// alias the workspace (outXs aliases the caller's xs when one is provided)
// and stay valid only until the next GenLine call on the same workspace.
func (w *LineWorkspace) GenLine(rng *rand.Rand, class int, xs []float64, reps int, noiseLo, noiseHi float64, perPointNoise bool) (outXs, values []float64) {
	if xs == nil {
		n := 5 + rng.Intn(7)
		w.seq = GenSequenceInto(w.seq, rng, RandomSequenceKind(rng), n)
		xs = w.seq
	}
	if reps < 1 {
		reps = 1
	}
	exps := pmnf.Class(class)
	c0, c1 := genCoeff(rng), genCoeff(rng)
	// Redraw coefficients until the term is visible over the line (see
	// minTermVisibility); classes that are inherently flat on this sequence
	// keep the last draw.
	if !exps.IsConstant() {
		for try := 0; try < 100; try++ {
			span := termSpan(exps, c1, xs)
			meanTerm := 0.0
			for _, x := range xs {
				meanTerm += exps.Eval(x)
			}
			meanTerm /= float64(len(xs))
			if span >= minTermVisibility*(c0+c1*meanTerm) {
				break
			}
			c0, c1 = genCoeff(rng), genCoeff(rng)
		}
	}
	level := noiseLo + rng.Float64()*(noiseHi-noiseLo)
	if cap(w.vals) < len(xs) {
		w.vals = make([]float64, len(xs))
	}
	values = w.vals[:len(xs)]
	if cap(w.reps) < reps {
		w.reps = make([]float64, reps)
	}
	repBuf := w.reps[:reps]
	for i, x := range xs {
		if perPointNoise {
			level = noiseLo + rng.Float64()*(noiseHi-noiseLo)
		}
		truth := c0 + c1*exps.Eval(x)
		for r := range repBuf {
			repBuf[r] = truth * NoiseFactor(rng, level)
		}
		values[i] = stats.MedianInPlace(repBuf)
	}
	return xs, values
}

// TaskSpec describes one synthetic multi-parameter evaluation task
// (Section V): the grid of measurement points, the repetition count, the
// injected noise level, and the number of extrapolation points.
type TaskSpec struct {
	NumParams      int
	PointsPerParam int     // typically 5
	Reps           int     // typically 5
	NoiseLevel     float64 // fraction, e.g. 0.5 for 50%
	EvalPoints     int     // extrapolation points P+, typically 4
	// ParamValues optionally fixes the per-parameter value sequences of the
	// measured grid instead of drawing random ones, so many instances can
	// share one experiment layout — the shape of a real application profile,
	// where every kernel is measured over the same design (and which the
	// adaptation cache exploits). When set it must hold NumParams strictly
	// increasing sequences of PointsPerParam positive values; extrapolation
	// points continue each sequence linearly (next = last + last step).
	ParamValues [][]float64
}

// Instance is one generated evaluation task: the ground-truth model, the
// noisy measurement set over the full grid, and the extrapolation points
// with their noiseless truth values.
type Instance struct {
	Truth       pmnf.Model
	Set         *measurement.Set
	ParamValues [][]float64
	EvalPoints  []measurement.Point
	EvalTruth   []float64
}

// GenInstance generates one evaluation task. The ground-truth model is built
// from one random exponent class per parameter; the parameters are combined
// into terms by a random set partition, covering both additive and
// multiplicative interactions, with coefficients drawn uniformly.
func GenInstance(rng *rand.Rand, spec TaskSpec) Instance {
	if spec.NumParams < 1 {
		panic("synth: TaskSpec.NumParams must be >= 1")
	}
	if spec.PointsPerParam < 2 {
		panic("synth: TaskSpec.PointsPerParam must be >= 2")
	}
	m := spec.NumParams

	// Parameter-value sequences, extended for extrapolation points. A fixed
	// layout (spec.ParamValues) is continued linearly past the measured grid;
	// a random one extends by its own generation rule.
	seqs := make([][]float64, m)
	values := make([][]float64, m)
	for l := 0; l < m; l++ {
		if spec.ParamValues != nil {
			if len(spec.ParamValues) != m || len(spec.ParamValues[l]) != spec.PointsPerParam {
				panic("synth: TaskSpec.ParamValues must hold NumParams sequences of PointsPerParam values")
			}
			seq := append([]float64(nil), spec.ParamValues[l]...)
			step := seq[len(seq)-1] - seq[len(seq)-2]
			for e := 0; e < spec.EvalPoints; e++ {
				seq = append(seq, seq[len(seq)-1]+step)
			}
			seqs[l] = seq
		} else {
			seqs[l] = GenSequence(rng, RandomSequenceKind(rng), spec.PointsPerParam+spec.EvalPoints)
		}
		values[l] = seqs[l][:spec.PointsPerParam]
	}

	// Ground truth: one exponent class per parameter, random partition into
	// product terms. Coefficients are redrawn until every term contributes
	// visibly over the measured grid (see minTermVisibility), so the labeled
	// complexity is actually present in the data.
	exps := make([]pmnf.Exponents, m)
	for l := range exps {
		exps[l] = pmnf.Class(rng.Intn(pmnf.NumClasses))
	}
	grid := cartesian(values)
	var truth pmnf.Model
	blocks := randomPartition(rng, m)
	for try := 0; try < 100; try++ {
		truth = pmnf.Model{Constant: genCoeff(rng)}
		for _, group := range blocks {
			term := pmnf.Term{Coefficient: genCoeff(rng), Exps: make([]pmnf.Exponents, m)}
			for _, l := range group {
				term.Exps[l] = exps[l]
			}
			truth.Terms = append(truth.Terms, term)
		}
		if termsVisible(truth, grid) {
			break
		}
	}

	// Noisy measurements over the full grid.
	set := &measurement.Set{Metric: "runtime"}
	reps := spec.Reps
	if reps < 1 {
		reps = 1
	}
	for _, pt := range grid {
		base := truth.Eval(pt)
		vals := make([]float64, reps)
		for r := range vals {
			vals[r] = base * NoiseFactor(rng, spec.NoiseLevel)
		}
		set.Data = append(set.Data, measurement.Measurement{
			Point:  measurement.Point(pt),
			Values: vals,
		})
	}

	// Extrapolation points: diagonal continuation of every sequence (Fig. 2).
	inst := Instance{Truth: truth, Set: set, ParamValues: values}
	for e := 0; e < spec.EvalPoints; e++ {
		pt := make(measurement.Point, m)
		for l := 0; l < m; l++ {
			pt[l] = seqs[l][spec.PointsPerParam+e]
		}
		inst.EvalPoints = append(inst.EvalPoints, pt)
		inst.EvalTruth = append(inst.EvalTruth, truth.Eval(pt))
	}
	return inst
}

// termsVisible reports whether every non-constant term of the model spans at
// least minTermVisibility of the function's mean value across the grid.
func termsVisible(model pmnf.Model, grid [][]float64) bool {
	meanF := 0.0
	for _, pt := range grid {
		meanF += model.Eval(pt)
	}
	meanF /= float64(len(grid))
	for _, t := range model.Terms {
		nonConstant := false
		for _, e := range t.Exps {
			if !e.IsConstant() {
				nonConstant = true
				break
			}
		}
		if !nonConstant {
			continue
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, pt := range grid {
			v := t.Eval(pt)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi-lo < minTermVisibility*math.Abs(meanF) {
			return false
		}
	}
	return true
}

// randomPartition splits the parameter indices 0..m-1 into a uniformly
// chosen ordered set partition: parameters in the same block multiply within
// one term, distinct blocks add.
func randomPartition(rng *rand.Rand, m int) [][]int {
	var blocks [][]int
	for l := 0; l < m; l++ {
		// Chinese-restaurant style assignment: join an existing block or
		// open a new one with equal probability per option.
		choice := rng.Intn(len(blocks) + 1)
		if choice == len(blocks) {
			blocks = append(blocks, []int{l})
		} else {
			blocks[choice] = append(blocks[choice], l)
		}
	}
	return blocks
}

// cartesian enumerates the full grid of parameter values in row-major order.
func cartesian(values [][]float64) [][]float64 {
	total := 1
	for _, v := range values {
		total *= len(v)
	}
	out := make([][]float64, 0, total)
	idx := make([]int, len(values))
	for n := 0; n < total; n++ {
		pt := make([]float64, len(values))
		for l := range values {
			pt[l] = values[l][idx[l]]
		}
		out = append(out, pt)
		for l := len(values) - 1; l >= 0; l-- {
			idx[l]++
			if idx[l] < len(values[l]) {
				break
			}
			idx[l] = 0
		}
	}
	return out
}
