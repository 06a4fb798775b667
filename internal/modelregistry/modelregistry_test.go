package modelregistry

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"extrapdnn/internal/nn"
)

func testKey(seed int64) Key {
	return Key{
		Arch:            []int{11, 64, 48, 43},
		SamplesPerClass: 500, Reps: 5, Epochs: 3, BatchSize: 64,
		Seed: seed,
	}
}

func testNet(seed int64) *nn.Network {
	return nn.NewNetwork([]int{5, 8, 4}, rand.New(rand.NewSource(seed)))
}

// TestRoundTrip pins the core contract: Store then Load returns a network
// with identical weights (same Fingerprint, same serialized bytes).
func TestRoundTrip(t *testing.T) {
	r, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	if _, ok, err := r.Load(k); ok || err != nil {
		t.Fatalf("cold load: ok=%v err=%v, want clean miss", ok, err)
	}
	net := testNet(2)
	if err := r.Store(k, net); err != nil {
		t.Fatal(err)
	}
	got, ok, err := r.Load(k)
	if err != nil || !ok {
		t.Fatalf("warm load: ok=%v err=%v", ok, err)
	}
	if got.Fingerprint() != net.Fingerprint() {
		t.Fatalf("fingerprint %x, want %x", got.Fingerprint(), net.Fingerprint())
	}
	var a, b bytes.Buffer
	if err := net.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("round-tripped network serializes differently")
	}
}

// TestDigestDistinguishesKeys checks that every field participates in the
// digest: flipping any one must change the blob address.
func TestDigestDistinguishesKeys(t *testing.T) {
	base := testKey(1)
	variants := []Key{
		{Arch: []int{11, 64, 43}, SamplesPerClass: 500, Reps: 5, Epochs: 3, BatchSize: 64, Seed: 1},
		{Arch: []int{11, 64, 48, 43}, SamplesPerClass: 501, Reps: 5, Epochs: 3, BatchSize: 64, Seed: 1},
		{Arch: []int{11, 64, 48, 43}, SamplesPerClass: 500, Reps: 6, Epochs: 3, BatchSize: 64, Seed: 1},
		{Arch: []int{11, 64, 48, 43}, SamplesPerClass: 500, Reps: 5, Epochs: 4, BatchSize: 64, Seed: 1},
		{Arch: []int{11, 64, 48, 43}, SamplesPerClass: 500, Reps: 5, Epochs: 3, BatchSize: 32, Seed: 1},
		{Arch: []int{11, 64, 48, 43}, SamplesPerClass: 500, Reps: 5, Epochs: 3, BatchSize: 64, LearningRate: 0.01, Seed: 1},
		{Arch: []int{11, 64, 48, 43}, SamplesPerClass: 500, Reps: 5, Epochs: 3, BatchSize: 64, Seed: 2},
		{Arch: []int{11, 64, 48, 43}, SamplesPerClass: 500, Reps: 5, Epochs: 3, BatchSize: 64, Seed: 1, Precision: nn.Float32},
	}
	seen := map[string]bool{base.Digest(): true}
	for i, v := range variants {
		d := v.Digest()
		if seen[d] {
			t.Fatalf("variant %d collides with an earlier key", i)
		}
		seen[d] = true
	}
	if base.Digest() != testKey(1).Digest() {
		t.Fatal("digest is not deterministic")
	}
}

// TestCorruptedBlob pins the degraded path: a truncated or bit-flipped blob
// must surface as a miss with a diagnostic error, never as a hit and never as
// a hard failure, because the caller can always retrain.
func TestCorruptedBlob(t *testing.T) {
	r, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(3)
	if err := r.Store(k, testNet(4)); err != nil {
		t.Fatal(err)
	}
	path := r.path(k)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if net, ok, err := r.Load(k); ok || err == nil || net != nil {
		t.Fatalf("truncated blob: net=%v ok=%v err=%v, want diagnosed miss", net, ok, err)
	}

	// A NaN weight injected into an otherwise well-formed blob must be caught
	// by nn.Load's non-finite validation.
	bad := append([]byte(nil), blob...)
	for i := 8 + 8 + 24; i < 8+8+24+8; i++ {
		bad[i] = 0xff
	}
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := r.Load(k); ok || err == nil {
		t.Fatalf("poisoned blob: ok=%v err=%v, want diagnosed miss", ok, err)
	}

	// Restoring the pristine bytes restores the hit.
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := r.Load(k); !ok || err != nil {
		t.Fatalf("restored blob: ok=%v err=%v", ok, err)
	}
}

// TestConcurrentLoadStore hammers one key from many goroutines under the race
// detector: every successful load must return a complete, valid network (the
// atomic-rename guarantee), regardless of interleaving with stores.
func TestConcurrentLoadStore(t *testing.T) {
	r, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(5)
	nets := []*nn.Network{testNet(6), testNet(7)}
	fps := map[uint64]bool{nets[0].Fingerprint(): true, nets[1].Fingerprint(): true}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if g%2 == 0 {
					if err := r.Store(k, nets[(g+i)%2]); err != nil {
						t.Errorf("store: %v", err)
						return
					}
				} else {
					net, ok, err := r.Load(k)
					if err != nil {
						t.Errorf("load: %v", err)
						return
					}
					if ok && !fps[net.Fingerprint()] {
						t.Errorf("loaded a network nobody stored (torn blob?)")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// No temporary files may survive.
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".net" {
			t.Fatalf("leftover file %q in registry dir", e.Name())
		}
	}
}

// TestOpenErrors covers the unusable-configuration paths.
func TestOpenErrors(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(file, "sub")); err == nil {
		t.Fatal("Open under a plain file succeeded")
	}
}
