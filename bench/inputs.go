package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"extrapdnn/internal/core"
	"extrapdnn/internal/measurement"
	"extrapdnn/internal/pmnf"
	"extrapdnn/internal/profile"
	"extrapdnn/internal/synth"
)

// Every input is a synthetic PMNF measurement set from internal/synth with a
// known ground truth; the program sees only the sets. A workload is a list of
// groups. The kernels of one group share a layout, a noise level and — by
// rejection sampling on core.TaskSignature — one adaptation signature, so
// every group costs exactly one domain adaptation and the adaptation working
// set is known in advance.
//
// The fixed part of a workload is drawn from refSeed: one layout per
// parameter count, and each group's reference kernels. The rest of each group
// is drawn from the run's seed, with the reference kernels' signature. An
// adapted network depends only on its signature, so the program's output for
// a reference kernel is the same whatever the seed: accuracy_pct is scored on
// the reference kernels alone, and a change that alters one of their models
// moves it on every seed.

const (
	pointsPerParam = 5
	repetitions    = 5
	// refSeed seeds the fixed part of every workload.
	refSeed = 0x5eed
)

// lowNoise and highNoise sit either side of the modeler's 20% threshold:
// below it DNN and regression both run, above it only the DNN does.
const (
	lowNoise  = 0.05
	highNoise = 0.30
)

// kernel is one modeling task of a workload.
type kernel struct {
	name  string
	m     int // parameter count
	ref   bool
	truth pmnf.Model
	set   *measurement.Set
	body  []byte // the set as JSON: the /v1/model request body
}

// groupSpec is one group of a workload: nRef reference kernels and nSeed
// kernels from the run's seed, with m parameters at one noise level.
type groupSpec struct {
	m           int
	noise       float64
	nRef, nSeed int
}

// mix is the noise mix of campaign-warm and of the serving pools: for each
// parameter count, three quarters of the kernels at lowNoise and a quarter at
// highNoise, so a quarter take the DNN-only path. It makes two adaptation
// signatures per parameter count. The adaptation cache splits its 32 entries
// into 8 shards of 4, so a working set of more than 4 signatures can evict
// by chance; at 6 that takes 5 in one shard, which happens to about one
// network fingerprint in 800, and the workloads check that it did not.
func mix(ms []int, nRef, nSeed int) []groupSpec {
	var out []groupSpec
	for _, m := range ms {
		out = append(out, groupSpec{m, lowNoise, 3 * nRef, 3 * nSeed}, groupSpec{m, highNoise, nRef, nSeed})
	}
	return out
}

// drawGroups draws the groups of a workload; the groups of one parameter
// count share its layout.
func drawGroups(seed int64, specs []groupSpec) ([][]*kernel, error) {
	refRng, rng := rand.New(rand.NewSource(refSeed)), rand.New(rand.NewSource(seed))
	layouts := map[int][][]float64{}
	out := make([][]*kernel, len(specs))
	for i, g := range specs {
		if layouts[g.m] == nil {
			layouts[g.m] = newLayout(refRng, g.m)
		}
		prefix := fmt.Sprintf("m%d-n%02.0f-", g.m, 100*g.noise)
		ref, sig, err := sameSignature(refRng, prefix+"r", layouts[g.m], g.noise, "", g.nRef)
		if err != nil {
			return nil, err
		}
		seeded, _, err := sameSignature(rng, prefix+"s", layouts[g.m], g.noise, sig, g.nSeed)
		if err != nil {
			return nil, err
		}
		for _, k := range ref {
			k.ref = true
		}
		out[i] = append(ref, seeded...)
	}
	return out, nil
}

// newLayout draws one experiment layout: pointsPerParam values per parameter.
func newLayout(rng *rand.Rand, m int) [][]float64 {
	layout := make([][]float64, m)
	for l := range layout {
		layout[l] = synth.GenSequence(rng, synth.RandomSequenceKind(rng), pointsPerParam)
	}
	return layout
}

// sameSignature draws n kernels on one layout at one noise level whose sets
// have adaptation signature want, or, when want is empty, share the first
// signature drawn n times. It returns the kernels and their signature.
func sameSignature(rng *rand.Rand, prefix string, layout [][]float64, noise float64, want string, n int) ([]*kernel, string, error) {
	spec := synth.TaskSpec{
		NumParams:      len(layout),
		PointsPerParam: pointsPerParam,
		Reps:           repetitions,
		NoiseLevel:     noise,
		ParamValues:    layout,
	}
	bySig := map[string][]*kernel{}
	for try := 0; n > 0 && try < 1000*n; try++ {
		inst := synth.GenInstance(rng, spec)
		sig, err := core.TaskSignature(inst.Set, 0)
		if err != nil {
			return nil, "", fmt.Errorf("signature of a generated set: %w", err)
		}
		if want != "" && sig != want {
			continue
		}
		ks := append(bySig[sig], &kernel{m: len(layout), truth: inst.Truth, set: inst.Set})
		if len(ks) < n {
			bySig[sig] = ks
			continue
		}
		for i, k := range ks {
			k.name = fmt.Sprintf("%s%02d", prefix, i)
			if k.body, err = json.Marshal(k.set); err != nil {
				return nil, "", err
			}
		}
		return ks, sig, nil
	}
	if n == 0 {
		return nil, want, nil
	}
	return nil, "", fmt.Errorf("no adaptation signature repeated %d times for %s", n, prefix)
}

// flatten concatenates groups.
func flatten(groups [][]*kernel) []*kernel {
	var out []*kernel
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// profileJSONL renders kernels as a streaming JSONL profile, the input of
// perfmodeler -profile and of /v1/profile.
func profileJSONL(kernels []*kernel) ([]byte, error) {
	var buf bytes.Buffer
	w, err := profile.NewWriter(&buf, "bench", nil)
	if err != nil {
		return nil, err
	}
	for _, e := range entries(kernels) {
		if err := w.WriteEntry(e); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// entries adapts kernels into profile entries.
func entries(kernels []*kernel) []profile.Entry {
	out := make([]profile.Entry, len(kernels))
	for i, k := range kernels {
		out[i] = profile.Entry{Kernel: k.name, Metric: "runtime", Set: k.set}
	}
	return out
}

// byName indexes kernels by name.
func byName(kernels []*kernel) map[string]*kernel {
	out := make(map[string]*kernel, len(kernels))
	for _, k := range kernels {
		out[k.name] = k
	}
	return out
}
