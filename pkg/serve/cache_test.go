package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"slices"
	"testing"

	"trusthmd/pkg/detector"
)

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	mk := func(v float64) []float64 { return []float64{v, v + 1} }
	res := func(p int) detector.Result {
		return detector.Result{Prediction: p, VoteDist: []float64{0.3, 0.7}}
	}
	put := func(x []float64, p int) { c.put(hashVec(x), x, res(p)) }
	get := func(x []float64) (detector.Result, bool) { return c.get(hashVec(x), x) }

	put(mk(1), 1)
	put(mk(2), 2)
	if r, ok := get(mk(1)); !ok || r.Prediction != 1 {
		t.Fatalf("expected hit for vec 1, got %v %v", r, ok)
	}
	put(mk(3), 3) // evicts vec 2 (1 was just refreshed)
	if _, ok := get(mk(2)); ok {
		t.Fatal("vec 2 should have been evicted as least recently used")
	}
	if _, ok := get(mk(1)); !ok {
		t.Fatal("vec 1 should have survived eviction")
	}
	if _, ok := get(mk(3)); !ok {
		t.Fatal("vec 3 should be cached")
	}
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.len())
	}

	// Cached results are deep copies: mutating a served result must not
	// corrupt the cache.
	r, _ := get(mk(3))
	r.VoteDist[0] = math.NaN()
	r2, _ := get(mk(3))
	if math.IsNaN(r2.VoteDist[0]) {
		t.Fatal("cache entry aliases a served result's VoteDist")
	}

	// A disabled cache (capacity <= 0) is a nil no-op.
	var off *resultCache
	off.put(1, mk(1), res(1))
	if _, ok := off.get(1, mk(1)); ok {
		t.Fatal("nil cache should never hit")
	}
	if newResultCache(0) != nil || newResultCache(-1) != nil {
		t.Fatal("capacity <= 0 should disable the cache")
	}
}

func TestHashVecDiscriminates(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1, 2, 3.0000000001}
	if hashVec(a) == hashVec(b) {
		t.Fatal("nearby vectors should hash apart")
	}
	if hashVec(a) != hashVec([]float64{1, 2, 3}) {
		t.Fatal("equal vectors must hash equal")
	}
	// Collisions must be detected by the stored-vector comparison.
	c := newResultCache(4)
	key := hashVec(a)
	c.put(key, a, detector.Result{Prediction: 1})
	if _, ok := c.get(key, b); ok {
		t.Fatal("a colliding key with a different vector must miss")
	}
}

// TestServeCacheHitsAreIdentical is the cross-request caching e2e: the
// same vectors served twice over HTTP must answer bit-identically, /stats
// must show the second pass as pure cache hits, and the coalescer must see
// no additional batches. A batch of the same vectors then bypasses the
// cache and answers the same bits. When TRUSTHMD_SERVE_STATS_OUT is set (the CI
// bench job does this), the final /stats snapshot is written there as a
// build artifact.
func TestServeCacheHitsAreIdentical(t *testing.T) {
	d, X := testDetector(t)
	s, ts := newTestServer(t, Config{CacheSize: 1024})
	n := 60

	assess := func(i int) AssessResponse {
		resp, body := postJSON(t, ts.URL+"/v1/assess", AssessRequest{Features: X[i%len(X)]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("assess %d: status %d: %s", i, resp.StatusCode, body)
		}
		var out AssessResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	first := make([]AssessResponse, n)
	for i := 0; i < n; i++ {
		first[i] = assess(i)
	}
	st := s.Fleet().Stats()[0]
	if st.CacheMisses == 0 {
		t.Fatalf("first pass recorded no cache misses: %+v", st)
	}
	batchesAfterFirst := st.Batches

	for i := 0; i < n; i++ {
		second := assess(i)
		want := first[i]
		if second.Prediction != want.Prediction || second.Entropy != want.Entropy || second.Decision != want.Decision {
			t.Fatalf("request %d: cached answer diverged: %+v vs %+v", i, second, want)
		}
		for j := range want.VoteDist {
			if second.VoteDist[j] != want.VoteDist[j] {
				t.Fatalf("request %d: cached vote dist diverged", i)
			}
		}
		// And the cache answers exactly what the detector would compute.
		direct, err := d.Assess(X[i%len(X)])
		if err != nil {
			t.Fatal(err)
		}
		if second.Prediction != direct.Prediction || second.Entropy != direct.Entropy {
			t.Fatalf("request %d: cached answer diverged from direct Assess", i)
		}
	}
	st = s.Fleet().Stats()[0]
	if st.CacheHits < int64(n) {
		t.Fatalf("second pass expected >= %d cache hits, got %d", n, st.CacheHits)
	}
	if st.Batches != batchesAfterFirst {
		t.Fatalf("cache hits still flushed batches: %d -> %d", batchesAfterFirst, st.Batches)
	}
	if st.Requests != int64(2*n) {
		t.Fatalf("stats requests %d, want %d", st.Requests, 2*n)
	}
	if st.CacheEntries == 0 {
		t.Fatal("cache reports zero entries after serving")
	}

	// The batch endpoint leaves the cache alone: a batch of vectors that
	// are all cached is assessed directly, answers bit-identically to the
	// cached pass and to AssessBatch, and moves no cache counter.
	before := s.Fleet().Stats()[0]
	batch := make([][]float64, n)
	for i := range batch {
		batch[i] = X[i%len(X)]
	}
	resp, body := postJSON(t, ts.URL+"/v1/assess/batch", BatchRequest{Batch: batch})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	var bout BatchResponse
	if err := json.Unmarshal(body, &bout); err != nil {
		t.Fatal(err)
	}
	direct, err := d.AssessBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(bout.Results) != n {
		t.Fatalf("batch answered %d results, want %d", len(bout.Results), n)
	}
	for i, r := range bout.Results {
		want := first[i]
		if r.Prediction != want.Prediction || r.Entropy != want.Entropy || r.Decision != want.Decision ||
			!slices.Equal(r.VoteDist, want.VoteDist) {
			t.Fatalf("batch[%d]: %+v diverged from the cached pass %+v", i, r, want)
		}
		if r.Prediction != direct[i].Prediction || r.Entropy != direct[i].Entropy ||
			r.Decision != direct[i].Decision.String() || !slices.Equal(r.VoteDist, direct[i].VoteDist) {
			t.Fatalf("batch[%d]: %+v diverged from AssessBatch %+v", i, r, direct[i])
		}
	}
	st = s.Fleet().Stats()[0]
	if st.CacheHits != before.CacheHits || st.CacheMisses != before.CacheMisses || st.CacheEntries != before.CacheEntries {
		t.Fatalf("batch pass touched the cache: hits %d -> %d, misses %d -> %d, entries %d -> %d",
			before.CacheHits, st.CacheHits, before.CacheMisses, st.CacheMisses, before.CacheEntries, st.CacheEntries)
	}
	if st.BatchSamples != before.BatchSamples+int64(n) {
		t.Fatalf("batch samples %d -> %d, want +%d", before.BatchSamples, st.BatchSamples, n)
	}

	if path := os.Getenv("TRUSTHMD_SERVE_STATS_OUT"); path != "" {
		raw, err := json.MarshalIndent(map[string]any{"shards": s.Fleet().Stats()}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatalf("writing serve stats artifact: %v", err)
		}
	}
}

// TestServeCacheDisabled pins the opt-out: with CacheSize < 0 every
// repeat request goes through the coalescer and the cache counters stay
// untouched — a disabled cache reports no activity at all, rather than a
// 100% miss rate for a cache that does not exist.
func TestServeCacheDisabled(t *testing.T) {
	_, X := testDetector(t)
	s, ts := newTestServer(t, Config{CacheSize: -1})
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/assess", AssessRequest{Features: X[0]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/assess/batch", BatchRequest{Batch: [][]float64{X[0], X[0]}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	st := s.Fleet().Stats()[0]
	if st.CacheHits != 0 || st.CacheMisses != 0 || st.CacheEntries != 0 {
		t.Fatalf("disabled cache recorded activity: %+v", st)
	}
	if st.Batches != 3 {
		t.Fatalf("every repeat should have flushed: %d batches, want 3", st.Batches)
	}
	if st.BatchSamples != 2 {
		t.Fatalf("batch endpoint served %d samples, want 2", st.BatchSamples)
	}
}
