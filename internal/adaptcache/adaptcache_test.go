package adaptcache

import (
	"fmt"
	"sync"
	"testing"

	"extrapdnn/internal/dnnmodel"
	"extrapdnn/internal/nn"
)

func modeler() *dnnmodel.Modeler { return &dnnmodel.Modeler{} }

// getOrCreate calls GetOrCreateErr with an infallible create.
func getOrCreate(c *Cache, key string, create func() *dnnmodel.Modeler) *dnnmodel.Modeler {
	m, _ := c.GetOrCreateErr(key, func() (*dnnmodel.Modeler, error) { return create(), nil })
	return m
}

// resident reports whether key holds a ready modeler, without touching the
// LRU order or the hit/miss counters.
func resident(c *Cache, key string) (*dnnmodel.Modeler, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	m := el.Value.(*entry).m
	return m, m != nil
}

func TestSignatureKeyDistinguishesFields(t *testing.T) {
	base := Signature{
		ParamNames:      []string{"p"},
		ParamValues:     [][]float64{{2, 4, 8, 16, 32}},
		Reps:            5,
		NoiseMin:        0.025,
		NoiseMax:        0.05,
		PerPointNoise:   true,
		SamplesPerClass: 200,
		Epochs:          1,
		BatchSize:       64,
		Fingerprint:     7,
		Seed:            1,
	}
	variants := []Signature{}
	v := base
	v.ParamNames = []string{"q"}
	variants = append(variants, v)
	v = base
	v.ParamNames = nil
	variants = append(variants, v)
	v = base
	v.ParamValues = [][]float64{{2, 4, 8, 16, 64}}
	variants = append(variants, v)
	v = base
	v.ParamValues = [][]float64{{2, 4, 8, 16}}
	variants = append(variants, v)
	v = base
	v.Reps = 3
	variants = append(variants, v)
	v = base
	v.NoiseMax = 0.075
	variants = append(variants, v)
	v = base
	v.PerPointNoise = false
	variants = append(variants, v)
	v = base
	v.SamplesPerClass = 100
	variants = append(variants, v)
	v = base
	v.Fingerprint = 8
	variants = append(variants, v)
	v = base
	v.Seed = 2
	variants = append(variants, v)
	v = base
	v.Precision = nn.Float32
	variants = append(variants, v)

	baseKey := base.Key()
	if copyKey := base.Key(); copyKey != baseKey {
		t.Fatal("Key is not deterministic")
	}
	seen := map[string]int{baseKey: -1}
	for i, v := range variants {
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("variant %d collides with variant %d", i, prev)
		}
		seen[k] = i
	}
}

func TestSeedForMatchesKeyEquality(t *testing.T) {
	a := Signature{Seed: 1, Reps: 5}
	b := Signature{Seed: 1, Reps: 5}
	if SeedFor(a.Key()) != SeedFor(b.Key()) {
		t.Fatal("equal signatures must derive equal rng seeds")
	}
	c := Signature{Seed: 2, Reps: 5}
	if SeedFor(a.Key()) == SeedFor(c.Key()) {
		t.Fatal("different seeds should (virtually always) derive different rng seeds")
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	if got := New(0); got != nil {
		t.Fatal("New(0) must return the nil (disabled) cache")
	}
	if got := New(-3); got != nil {
		t.Fatal("New(<0) must return the nil (disabled) cache")
	}
	calls := 0
	m := modeler()
	got := getOrCreate(c, "k", func() *dnnmodel.Modeler { calls++; return m })
	if got != m || calls != 1 {
		t.Fatalf("nil cache GetOrCreateErr: got %v after %d calls", got, calls)
	}
	getOrCreate(c, "k", func() *dnnmodel.Modeler { calls++; return m })
	if calls != 2 {
		t.Fatal("nil cache must run create on every call")
	}
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Fatal("nil cache must stay empty with zero stats")
	}
}

func TestGetOrCreateHitSkipsCreate(t *testing.T) {
	c := New(4)
	m := modeler()
	calls := 0
	create := func() *dnnmodel.Modeler { calls++; return m }
	if got := getOrCreate(c, "a", create); got != m {
		t.Fatal("miss must return created modeler")
	}
	if got := getOrCreate(c, "a", create); got != m {
		t.Fatal("hit must return cached modeler")
	}
	if calls != 1 {
		t.Fatalf("create ran %d times, want 1", calls)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 || s.Evictions != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(2)
	ms := map[string]*dnnmodel.Modeler{}
	add := func(k string) {
		ms[k] = modeler()
		getOrCreate(c, k, func() *dnnmodel.Modeler { return ms[k] })
	}
	add("a")
	add("b")
	// Touch "a" so "b" becomes least recently used.
	if got := getOrCreate(c, "a", func() *dnnmodel.Modeler { t.Fatal("unexpected create"); return nil }); got != ms["a"] {
		t.Fatal("expected hit on a")
	}
	add("c") // must evict "b"
	if _, ok := resident(c, "b"); ok {
		t.Fatal("b should have been evicted (least recently used)")
	}
	if got, ok := resident(c, "a"); !ok || got != ms["a"] {
		t.Fatal("a should have survived eviction")
	}
	if got, ok := resident(c, "c"); !ok || got != ms["c"] {
		t.Fatal("c should be resident")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats = %+v", s)
	}
	// Filling past capacity repeatedly evicts in insertion order of the
	// untouched entries.
	add("d") // evicts a: c was inserted after a was last touched
	if _, ok := resident(c, "a"); ok {
		t.Fatal("a should have been evicted after c was touched more recently")
	}
}

func TestSingleFlightConcurrentMisses(t *testing.T) {
	c := New(4)
	var mu sync.Mutex
	calls := 0
	m := modeler()
	const goroutines = 16
	var wg sync.WaitGroup
	results := make([]*dnnmodel.Modeler, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = getOrCreate(c, "k", func() *dnnmodel.Modeler {
				mu.Lock()
				calls++
				mu.Unlock()
				return m
			})
		}(i)
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("create ran %d times under concurrency, want 1 (single-flight)", calls)
	}
	for i, r := range results {
		if r != m {
			t.Fatalf("goroutine %d got %v, want the shared modeler", i, r)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != goroutines-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", s, goroutines-1)
	}
}

func TestGetOrCreatePanicRecovery(t *testing.T) {
	c := New(4)
	func() {
		defer func() { recover() }()
		getOrCreate(c, "k", func() *dnnmodel.Modeler { panic("boom") })
	}()
	if c.Len() != 0 {
		t.Fatal("panicked create must not leave a pending entry")
	}
	m := modeler()
	if got := getOrCreate(c, "k", func() *dnnmodel.Modeler { return m }); got != m {
		t.Fatal("key must be creatable after a panicked create")
	}
}

func TestEvictionUnderChurn(t *testing.T) {
	c := New(3)
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k%d", i%7)
		getOrCreate(c, k, modeler)
	}
	if c.Len() > 3 {
		t.Fatalf("cache grew past capacity: %d", c.Len())
	}
	s := c.Stats()
	if s.Misses+s.Hits != 50 {
		t.Fatalf("lookup accounting off: %+v", s)
	}
	if s.Evictions == 0 {
		t.Fatal("churn over capacity must evict")
	}
}

// TestConcurrentMixedKeys drives the cache from many goroutines at once (run
// under -race by scripts/check.sh): hot-key hits, cold-key misses and
// evictions all interleave, and the accounting must still balance.
func TestConcurrentMixedKeys(t *testing.T) {
	c := New(16)
	const goroutines = 16
	const opsPer = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				switch i % 3 {
				case 0: // hot key shared by everyone
					getOrCreate(c, "hot", modeler)
				case 1: // warm per-goroutine key
					getOrCreate(c, fmt.Sprintf("warm-%d", g), modeler)
				default: // cold churn forcing evictions
					getOrCreate(c, fmt.Sprintf("cold-%d-%d", g, i), modeler)
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses != goroutines*opsPer {
		t.Fatalf("lookup accounting off: %+v (want %d total lookups)", s, goroutines*opsPer)
	}
	if c.Len() > 16 {
		t.Fatalf("cache grew past its capacity: %d", c.Len())
	}
	if s.Evictions == 0 {
		t.Fatal("cold churn past capacity must evict")
	}
}

// TestPerShardEviction fills the cache far past its budget: exactly the
// overflow is evicted, Len stays at the capacity, and the survivors are the
// most recently inserted keys. (The cache was once split into shards with
// one budget each; the name is kept, and the check now holds for the single
// LRU.)
func TestPerShardEviction(t *testing.T) {
	c := New(2)
	keys := []string{"key-0", "key-1", "key-2", "key-3", "key-4"}
	for _, k := range keys {
		getOrCreate(c, k, modeler)
	}
	if got := c.Stats().Evictions; got != 3 {
		t.Fatalf("evicted %d entries, want 3 (5 inserts into a budget of 2)", got)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want the budget 2", c.Len())
	}
	if _, ok := resident(c, keys[4]); !ok {
		t.Fatal("most recent key evicted")
	}
	if _, ok := resident(c, keys[3]); !ok {
		t.Fatal("second most recent key evicted")
	}
	if _, ok := resident(c, keys[0]); ok {
		t.Fatal("oldest key survived past the budget")
	}
}

// TestStatsAggregateAcrossShards pins the hit/miss/entry accounting over many
// keys: one miss per first lookup, one hit per repeat, and Stats.Entries
// agrees with Len.
func TestStatsAggregateAcrossShards(t *testing.T) {
	c := New(64)
	const keys = 40
	for i := 0; i < keys; i++ {
		getOrCreate(c, fmt.Sprintf("key-%d", i), modeler) // miss
	}
	for i := 0; i < keys; i++ {
		getOrCreate(c, fmt.Sprintf("key-%d", i), modeler) // hit
	}
	agg := c.Stats()
	if agg.Hits != keys || agg.Misses != keys || agg.Entries != keys {
		t.Fatalf("stats = %+v, want %d hits, %d misses, %d entries", agg, keys, keys, keys)
	}
	if agg.Evictions != 0 || agg.Bytes != 0 {
		// Under capacity nothing is evicted; test modelers carry no network.
		t.Fatalf("stats = %+v, want no evictions and zero bytes", agg)
	}
	if agg.Entries != c.Len() {
		t.Fatalf("Stats.Entries %d != Len %d", agg.Entries, c.Len())
	}
}

// TestShardingPreservesSingleFlight pins that single-flight is per key:
// concurrent misses on several distinct keys at once each coalesce into
// exactly one create, and every caller gets its own key's modeler.
func TestShardingPreservesSingleFlight(t *testing.T) {
	c := New(64)
	const nkeys = 8
	const perKey = 8
	var mu sync.Mutex
	calls := map[string]int{}
	ms := map[string]*dnnmodel.Modeler{}
	for i := 0; i < nkeys; i++ {
		ms[fmt.Sprintf("k%d", i)] = modeler()
	}
	var wg sync.WaitGroup
	for i := 0; i < nkeys*perKey; i++ {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			got := getOrCreate(c, k, func() *dnnmodel.Modeler {
				mu.Lock()
				calls[k]++
				mu.Unlock()
				return ms[k]
			})
			if got != ms[k] {
				t.Errorf("key %s: goroutine did not receive the shared modeler", k)
			}
		}(fmt.Sprintf("k%d", i%nkeys))
	}
	wg.Wait()
	for k := range ms {
		if calls[k] != 1 {
			t.Fatalf("key %s: create ran %d times under concurrency, want 1", k, calls[k])
		}
	}
	if s := c.Stats(); s.Misses != nkeys || s.Hits != nkeys*(perKey-1) {
		t.Fatalf("stats = %+v, want %d misses and %d hits", s, nkeys, nkeys*(perKey-1))
	}
}
