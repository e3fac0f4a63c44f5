package serve

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"trusthmd/pkg/detector"
	"trusthmd/pkg/verdictstore"
)

// The loopback harness drives ServeHTTP directly with a reusable request
// body and response sink, so the benchmarks (and TestAllocsServe) measure
// the serving path itself — decode, route, coalesce, assess, encode — not
// the cost of rebuilding net/http plumbing per iteration.

// replayBody is a resettable request body over a fixed byte slice.
type replayBody struct {
	data []byte
	off  int
}

func (b *replayBody) reset()       { b.off = 0 }
func (b *replayBody) Close() error { return nil }

func (b *replayBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

// sinkWriter is a reusable ResponseWriter that retains the last status and
// body without per-request allocation.
type sinkWriter struct {
	h    http.Header
	code int
	body []byte
}

func newSinkWriter() *sinkWriter           { return &sinkWriter{h: make(http.Header, 4)} }
func (w *sinkWriter) Header() http.Header  { return w.h }
func (w *sinkWriter) WriteHeader(code int) { w.code = code }
func (w *sinkWriter) reset() {
	w.code = 0
	w.body = w.body[:0]
	for k := range w.h {
		delete(w.h, k)
	}
}

func (w *sinkWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// benchServer builds a single-shard fleet for the loopback path: the
// defaults (a sequential driver's lone request is flushed at once in a
// batch of one), except the cache is disabled so every request walks the
// full assess path instead of turning the benchmark into a hashmap lookup.
func benchServer(tb testing.TB) (*Server, [][]float64) {
	tb.Helper()
	d, X := testDetector(tb)
	f, err := NewFleet(map[string]*detector.Detector{"dvfs-rf": d}, Config{
		CacheSize: -1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return NewServer(f), X
}

// BenchmarkServeAssess is the steady-state single-request loopback: one
// POST /v1/assess round trip per iteration through decode, admission,
// coalescer handoff, assessment and response encoding.
func BenchmarkServeAssess(b *testing.B) {
	srv, X := benchServer(b)
	defer srv.Close()
	payload, err := json.Marshal(AssessRequest{Device: "bench-0", Features: X[0]})
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/assess", nil)
	body := &replayBody{data: payload}
	w := newSinkWriter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.reset()
		req.Body = body
		w.reset()
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d: %s", w.code, w.body)
		}
	}
}

// BenchmarkServeBatch is the pre-batched loopback: one POST
// /v1/assess/batch of 16 vectors per iteration, exercising the client-
// batched path (validation, admission, one AssessBatch, per-row encode).
func BenchmarkServeBatch(b *testing.B) {
	srv, X := benchServer(b)
	defer srv.Close()
	n := 16
	if n > len(X) {
		n = len(X)
	}
	payload, err := json.Marshal(BatchRequest{Batch: X[:n]})
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/assess/batch", nil)
	body := &replayBody{data: payload}
	w := newSinkWriter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.reset()
		req.Body = body
		w.reset()
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d: %s", w.code, w.body)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n), "samples/op")
}

// BenchmarkServeBatchUnique is the batch-closed shape on the default
// config: 64-row POST /v1/assess/batch bodies drawn from 16384 distinct
// jittered rows, more than the default cache holds, so no row ever
// repeats within the cache's reach and the loop measures what a batch of
// fresh telemetry costs end to end through the handler.
func BenchmarkServeBatchUnique(b *testing.B) {
	d, X := testDetector(b)
	srv := mustServer(b, map[string]*detector.Detector{"dvfs-rf": d}, Config{})
	defer srv.Close()
	const rowsPerBody, uniqueRows = 64, 16384
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, uniqueRows/rowsPerBody)
	for i := range bodies {
		batch := make([][]float64, rowsPerBody)
		for r := range batch {
			base := X[rng.Intn(len(X))]
			x := make([]float64, len(base))
			for j, v := range base {
				x[j] = v*(1+1e-3*rng.NormFloat64()) + 1e-6*rng.NormFloat64()
			}
			batch[r] = x
		}
		payload, err := json.Marshal(BatchRequest{Batch: batch})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = payload
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/assess/batch", nil)
	body := &replayBody{}
	w := newSinkWriter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.data = bodies[i%len(bodies)]
		body.reset()
		req.Body = body
		w.reset()
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d: %s", w.code, w.body)
		}
	}
	b.StopTimer()
	b.ReportMetric(rowsPerBody, "samples/op")
}

// TestAllocsServe pins the steady-state allocation budget of the hot
// request paths. The pooled codecs, coalescer fast path and precomputed
// error bodies brought /v1/assess to ~1 alloc/op and /v1/assess/batch to
// 0 (the assess core votes serially, so a batch starts no goroutine); the
// budgets below leave a little headroom for runtime noise (pool misses
// after a GC) while still catching any regression back toward the
// reflection-based path, which costs tens of allocations per request.
func TestAllocsServe(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc-budget test")
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	srv, X := benchServer(t)
	defer srv.Close()

	run := func(srv *Server, path string, payload []byte) float64 {
		req := httptest.NewRequest(http.MethodPost, path, nil)
		body := &replayBody{data: payload}
		w := newSinkWriter()
		do := func() {
			body.reset()
			req.Body = body
			w.reset()
			srv.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", path, w.code, w.body)
			}
		}
		// Warm the pools and the coalescer before counting.
		for i := 0; i < 32; i++ {
			do()
		}
		return testing.AllocsPerRun(200, do)
	}

	assess, err := json.Marshal(AssessRequest{Device: "bench-0", Features: X[0]})
	if err != nil {
		t.Fatal(err)
	}
	if got := run(srv, "/v1/assess", assess); got > 4 {
		t.Errorf("POST /v1/assess allocates %.1f/op, budget 4", got)
	}
	batch, err := json.Marshal(BatchRequest{Batch: X[:8]})
	if err != nil {
		t.Fatal(err)
	}
	if got := run(srv, "/v1/assess/batch", batch); got > 1 {
		t.Errorf("POST /v1/assess/batch allocates %.1f/op, budget 1", got)
	}

	// The same batch with a verdict store attached, on the default config
	// (result cache on): the tap builds its records in the request scratch
	// and the store frames them without reflection, and the batch path
	// never copies into the cache, so the replayed rows fit the same budget.
	store, err := verdictstore.Open(t.TempDir(), verdictstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	d, _ := testDetector(t)
	tapped := mustServer(t, map[string]*detector.Detector{"dvfs-rf": d}, Config{Verdicts: store})
	defer tapped.Close()
	if got := run(tapped, "/v1/assess/batch", batch); got > 1 {
		t.Errorf("POST /v1/assess/batch with a verdict store allocates %.1f/op, budget 1", got)
	}
	if st := store.Stats(); st.Appended < 8*200 {
		t.Errorf("the store saw %d appends over 200 counted requests of 8 rows", st.Appended)
	}
}
