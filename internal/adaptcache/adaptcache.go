// Package adaptcache caches domain-adapted DNN modelers by task signature.
//
// The paper's domain adaptation (Section IV-B) retrains the pretrained
// network on synthetic data that mirrors only the *properties* of a modeling
// task — parameter-value sets, measurement-point layout, repetition count and
// estimated noise range — never the measured values themselves. Two tasks
// with equal properties therefore want the exact same adapted network, yet
// adaptation dominates per-kernel modeling cost. Because all kernels of one
// application profile share the experiment design and mostly land in the same
// noise band, caching the adapted network by a canonical task signature turns
// an 8-kernel profile from 8 adaptations into ~1, and lets a long-running
// service pay ~0 for repeat layouts.
//
// Soundness requires the adaptation to be a pure function of the signature:
// core.Modeler derives the adaptation random stream from the signature (plus
// the configured seed), so a cache hit is bit-identical to a fresh
// adaptation — pinned by TestAdaptCacheHitBitIdentical.
//
// The cache is a bounded, concurrency-safe LRU with single-flight creation:
// concurrent misses on one signature run the expensive adaptation once and
// share the result.
package adaptcache

import (
	"container/list"
	"encoding/binary"
	"hash/fnv"
	"math"
	"strings"
	"sync"

	"extrapdnn/internal/dnnmodel"
	"extrapdnn/internal/nn"
	"extrapdnn/internal/obs"
)

// Cache telemetry, mirroring the per-cache Stats counters as process-wide
// metrics so a scrape (or the CLI run digest) sees hit/miss/eviction rates
// without holding a *Cache. Singleflight waits count lookups that blocked on
// another caller's in-flight adaptation — the coalescing PR 3 introduced.
var (
	obsHits = obs.NewCounter("extrapdnn_adaptcache_hits_total",
		"Lookups served from the adaptation cache (incl. single-flight waits).")
	obsMisses = obs.NewCounter("extrapdnn_adaptcache_misses_total",
		"Lookups that ran a fresh adaptation.")
	obsEvictions = obs.NewCounter("extrapdnn_adaptcache_evictions_total",
		"Entries dropped by the LRU bound.")
	obsSingleflightWaits = obs.NewCounter("extrapdnn_adaptcache_singleflight_waits_total",
		"Lookups that blocked on another caller's in-flight adaptation.")
)

// Signature carries the adaptation-relevant properties of one modeling task.
// Its canonical Key is the cache key: two tasks share an adapted network iff
// their Keys are equal. See core.Modeler for how the fields are filled.
type Signature struct {
	// ParamNames are the display names of the execution parameters (may be
	// empty; an empty and a named layout deliberately do not alias).
	ParamNames []string
	// ParamValues are the exact per-parameter value sets of the selected
	// measurement lines — the layout the synthetic adaptation data mirrors.
	ParamValues [][]float64
	// Reps is the simulated repetition count.
	Reps int
	// NoiseMin and NoiseMax bound the adaptation noise range. Callers
	// quantize them to a documented bucket width before building the
	// signature, so kernels in the same noise band share one adaptation.
	NoiseMin, NoiseMax float64
	// PerPointNoise mirrors dnnmodel.TrainSpec.PerPointNoise.
	PerPointNoise bool
	// SamplesPerClass, Epochs, BatchSize and LearningRate are the effective
	// (defaulted) adaptation configuration.
	SamplesPerClass, Epochs, BatchSize int
	LearningRate                       float64
	// Fingerprint identifies the pretrained network the adaptation starts
	// from (nn.Network.Fingerprint).
	Fingerprint uint64
	// Seed is the modeler's configured random seed.
	Seed int64
	// Precision is the adaptation training arithmetic. Float32 and Float64
	// adaptations of the same task produce different weights, so they must
	// not share a cache entry (or an adaptation seed).
	Precision nn.Precision
}

// Key returns the canonical byte-exact encoding of the signature. Every
// field is length- or tag-prefixed, so distinct signatures can never collide
// (the key is an encoding, not a hash).
func (s Signature) Key() string {
	var b strings.Builder
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		b.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	u64(uint64(len(s.ParamNames)))
	for _, n := range s.ParamNames {
		u64(uint64(len(n)))
		b.WriteString(n)
	}
	u64(uint64(len(s.ParamValues)))
	for _, vs := range s.ParamValues {
		u64(uint64(len(vs)))
		for _, v := range vs {
			f64(v)
		}
	}
	u64(uint64(s.Reps))
	f64(s.NoiseMin)
	f64(s.NoiseMax)
	if s.PerPointNoise {
		u64(1)
	} else {
		u64(0)
	}
	u64(uint64(s.SamplesPerClass))
	u64(uint64(s.Epochs))
	u64(uint64(s.BatchSize))
	f64(s.LearningRate)
	u64(s.Fingerprint)
	u64(uint64(s.Seed))
	// Precision is appended only when non-default. Every earlier field is
	// length- or tag-prefixed, so the encoding is self-delimiting and a
	// suffix cannot make two previously-distinct keys collide — while every
	// default-precision key (and the SeedFor stream derived from it) stays
	// byte-identical to pre-precision-path builds.
	if s.Precision != nn.Float64 {
		u64(uint64(s.Precision))
	}
	return b.String()
}

// SeedFor derives the deterministic adaptation rng seed from a canonical key.
// Deriving the random stream from the task signature — instead of a content
// hash of the measured values — is what makes a cached network bit-identical
// to the one a fresh adaptation of an equal-signature task would produce.
func SeedFor(key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int64(h.Sum64())
}

// RetrySeed derives the adaptation rng seed for a divergence-recovery
// attempt. Attempt 0 is exactly SeedFor(key), so retry-capable callers are
// bit-identical to the historical single-attempt path when no retry happens;
// later attempts mix the attempt counter into the hash, staying a pure
// function of (key, attempt) — deterministic across runs and worker counts.
func RetrySeed(key string, attempt int) int64 {
	if attempt <= 0 {
		return SeedFor(key)
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(attempt))
	h.Write(buf[:])
	return int64(h.Sum64())
}

// Stats are the cache's monotonic counters plus its current occupancy.
type Stats struct {
	Hits      uint64 // lookups served from the cache (incl. single-flight waits)
	Misses    uint64 // lookups that ran a fresh adaptation
	Evictions uint64 // entries dropped by the LRU bound
	Entries   int    // resident entries
	Bytes     int64  // approximate retained bytes of resident networks
}

// entry is one cached adapted modeler. ready is closed once m is populated,
// so concurrent misses on the same key wait for the single in-flight
// adaptation instead of repeating it.
type entry struct {
	key   string
	m     *dnnmodel.Modeler
	bytes int64
	ready chan struct{}
}

// Cache is a bounded LRU of adapted modelers, safe for concurrent use: one
// mutex guards the LRU list, the key index and the counters. The zero value
// is not usable; construct with New.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List               // front = most recently used
	items    map[string]*list.Element // key -> element holding *entry
	stats    Stats
}

// New returns a cache bounded to capacity entries. It returns nil for
// capacity <= 0 — a nil *Cache is the documented "caching disabled" state
// (GetOrCreateErr on a nil cache runs create directly, Stats returns zeros),
// so callers need no branching.
func New(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// GetOrCreateErr returns the cached modeler for key, running create at most
// once per resident key: concurrent callers of a missing key block until the
// first caller's create completes and then share its result. create must be
// a pure function of key (the adaptation-cache contract). When create
// returns an error (or panics, or returns nil), the pending entry is dropped
// so the failure is never cached — a diverged or cancelled adaptation must
// not poison the cache for later equal-signature tasks. Waiters that observe
// a failed in-flight create fall back to their own create call and report
// its outcome.
func (c *Cache) GetOrCreateErr(key string, create func() (*dnnmodel.Modeler, error)) (*dnnmodel.Modeler, error) {
	if c == nil {
		return create()
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.ll.MoveToFront(el)
		c.stats.Hits++
		c.mu.Unlock()
		obsHits.Inc()
		waitReady(e)
		if e.m != nil {
			return e.m, nil
		}
		// The in-flight create failed or panicked; recover locally.
		return create()
	}
	e := &entry{key: key, ready: make(chan struct{})}
	el := c.ll.PushFront(e)
	c.items[key] = el
	c.stats.Misses++
	c.mu.Unlock()
	obsMisses.Inc()

	defer func() {
		c.mu.Lock()
		if e.m == nil {
			// create failed or panicked: drop the pending entry so later
			// callers retry instead of inheriting the failure.
			if cur, ok := c.items[key]; ok && cur == el {
				delete(c.items, key)
				c.ll.Remove(el)
			}
		} else if cur, ok := c.items[key]; ok && cur == el {
			// Account the entry only if the LRU bound didn't already evict it
			// while the adaptation was in flight.
			e.bytes = sizeOf(e.m)
			c.stats.Bytes += e.bytes
			c.evictOverCapLocked()
		}
		c.mu.Unlock()
		close(e.ready)
	}()
	m, err := create()
	if err != nil {
		return nil, err
	}
	e.m = m
	return m, nil
}

// waitReady blocks until an entry's create completes, counting the lookups
// that actually had to wait on an in-flight single-flight adaptation.
func waitReady(e *entry) {
	select {
	case <-e.ready:
	default:
		obsSingleflightWaits.Inc()
		<-e.ready
	}
}

// evictOverCapLocked drops least-recently-used entries until the capacity
// bound holds. Callers must hold c.mu.
func (c *Cache) evictOverCapLocked() {
	for c.ll.Len() > c.capacity {
		el := c.ll.Back()
		if el == nil {
			return
		}
		e := el.Value.(*entry)
		c.ll.Remove(el)
		delete(c.items, e.key)
		c.stats.Bytes -= e.bytes
		c.stats.Evictions++
		obsEvictions.Inc()
	}
}

// Len returns the number of resident entries (including in-flight ones).
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the counters. A nil cache reports zeros.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	return s
}

// sizeOf approximates the retained bytes of one adapted modeler: the
// float64 parameters dominate everything else.
func sizeOf(m *dnnmodel.Modeler) int64 {
	if m == nil || m.Net == nil {
		return 0
	}
	return int64(m.Net.NumParams()) * 8
}
