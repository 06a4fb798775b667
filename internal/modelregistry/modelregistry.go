// Package modelregistry persists pretrained networks on disk, addressed by a
// digest of everything that determines the training result.
//
// Pretraining is a pure function of its effective configuration: the network
// architecture, the dataset parameters, the optimizer settings, the seed and
// the arithmetic precision. Two runs with equal configuration produce the
// exact same weights, so a CLI that pretrains on every invocation is
// recomputing a cacheable artifact. The registry maps the canonical encoding
// of that configuration — digested, so the filename stays short and opaque —
// to an nn.Save blob under a caller-chosen directory (the CLIs' -model-dir).
//
// Lookups that miss fall through to training and Store the result; a second
// run with the same configuration then loads the finished network and skips
// pretraining entirely (the acceptance pin: zero training epochs on a warm
// registry). Stores write to a temporary file and rename, so concurrent
// processes — or a crash mid-write — can never leave a torn blob under a
// valid key; a blob that is nevertheless unreadable or fails nn.Load's
// validation is reported as a miss with a diagnostic, never as a fatal error,
// because the caller can always retrain.
package modelregistry

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"extrapdnn/internal/nn"
	"extrapdnn/internal/obs"
)

var (
	obsHits = obs.NewCounter("extrapdnn_modelregistry_hits_total",
		"Registry lookups served from a stored network blob.")
	obsMisses = obs.NewCounter("extrapdnn_modelregistry_misses_total",
		"Registry lookups with no stored blob (including unreadable ones).")
	obsStores = obs.NewCounter("extrapdnn_modelregistry_stores_total",
		"Networks written to the registry.")
	obsBadBlobs = obs.NewCounter("extrapdnn_modelregistry_bad_blobs_total",
		"Stored blobs rejected by validation and treated as misses.")
)

// Key identifies one pretraining result. The fields mirror the *effective*
// (post-default) dnnmodel.PretrainConfig plus the resolved architecture;
// callers must fill every field from the defaulted config, or equal runs
// would hash to different digests.
type Key struct {
	// Arch is the full layer-size chain, input and output included.
	Arch []int
	// SamplesPerClass, Reps, Epochs and BatchSize are the dataset/training
	// shape; LearningRate and Seed pin the optimizer trajectory.
	SamplesPerClass, Reps, Epochs, BatchSize int
	LearningRate                             float64
	Seed                                     int64
	// Precision is the training arithmetic (nn.Float64 or nn.Float32); the
	// two produce different weights from the same seed.
	Precision nn.Precision
}

// Digest returns the hex digest that addresses this key's blob. Like
// adaptcache's Signature.Key, the digested material is a length- and
// field-ordered encoding, so distinct keys cannot collide by construction
// (and SHA-256 keeps the on-disk name collision-free in practice).
func (k Key) Digest() string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u64(uint64(len(k.Arch)))
	for _, n := range k.Arch {
		u64(uint64(n))
	}
	u64(uint64(k.SamplesPerClass))
	u64(uint64(k.Reps))
	u64(uint64(k.Epochs))
	u64(uint64(k.BatchSize))
	u64(math.Float64bits(k.LearningRate))
	u64(uint64(k.Seed))
	u64(uint64(k.Precision))
	return hex.EncodeToString(h.Sum(nil))
}

// Registry is a directory of stored networks. The zero value is unusable;
// call Open. A Registry is safe for concurrent use: the filesystem provides
// the synchronization (atomic renames), there is no in-process state.
type Registry struct {
	dir string
}

// Open returns a registry rooted at dir, creating the directory if needed.
func Open(dir string) (*Registry, error) {
	if dir == "" {
		return nil, fmt.Errorf("modelregistry: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("modelregistry: %w", err)
	}
	return &Registry{dir: dir}, nil
}

func (r *Registry) path(k Key) string {
	return filepath.Join(r.dir, k.Digest()+".net")
}

// Load returns the network stored under k, or ok=false when there is none.
// A blob that exists but cannot be parsed (torn by external interference,
// truncated by a full disk, or rejected by nn.Load's validation) counts as a
// miss: ok is false and err carries the diagnostic, so the caller can log it
// and retrain rather than fail.
func (r *Registry) Load(k Key) (net *nn.Network, ok bool, err error) {
	f, err := os.Open(r.path(k))
	if err != nil {
		obsMisses.Inc()
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("modelregistry: %w", err)
	}
	defer f.Close()
	net, err = nn.Load(f)
	if err != nil {
		obsMisses.Inc()
		obsBadBlobs.Inc()
		return nil, false, fmt.Errorf("modelregistry: stored blob %s: %w", filepath.Base(f.Name()), err)
	}
	obsHits.Inc()
	return net, true, nil
}

// Store writes net under k atomically: the blob lands in a temporary file in
// the registry directory and is renamed into place, so concurrent readers see
// either the previous state or the complete new blob, never a prefix.
func (r *Registry) Store(k Key, net *nn.Network) error {
	tmp, err := os.CreateTemp(r.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("modelregistry: %w", err)
	}
	if err := net.Save(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("modelregistry: store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("modelregistry: store: %w", err)
	}
	if err := os.Rename(tmp.Name(), r.path(k)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("modelregistry: store: %w", err)
	}
	obsStores.Inc()
	return nil
}
