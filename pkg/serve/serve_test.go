package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"trusthmd/internal/gen"
	"trusthmd/internal/testgate"
	"trusthmd/pkg/detector"
)

// The trained detector is shared across tests (training dominates test
// time and a trained Detector is immutable and safe for concurrent use).
var (
	testOnce  sync.Once
	testDet   *detector.Detector
	testGated *detector.Detector
	testErr   error
	testX     [][]float64
)

// gatedDetector is testDetector with internal/testgate's family: while a
// test holds the gate, every caller assessing this detector stays inside
// the assessment, so a test can hold as many requests in flight as it
// needs, exactly as a slow assessment under production load would.
func gatedDetector(t testing.TB) (*detector.Detector, [][]float64) {
	t.Helper()
	_, X := testDetector(t)
	return testGated, X
}

// waitFor polls cond until it holds; the conditions waited on are gauges
// the serving layer exposes (in-flight work, a closed fleet), not elapsed
// time.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func testDetector(t testing.TB) (*detector.Detector, [][]float64) {
	t.Helper()
	testOnce.Do(func() {
		var s gen.Splits
		s, testErr = gen.DVFSWithSizes(3, gen.Sizes{Train: 280, Test: 140, Unknown: 40})
		if testErr != nil {
			return
		}
		testDet, testErr = detector.New(s.Train,
			detector.WithModel("rf"), detector.WithEnsembleSize(11), detector.WithSeed(1))
		if testErr != nil {
			return
		}
		testGated, testErr = detector.New(s.Train,
			detector.WithModel(testgate.Model), detector.WithEnsembleSize(11), detector.WithSeed(1))
		if testErr != nil {
			return
		}
		testX = make([][]float64, s.Test.Len())
		for i := range testX {
			testX[i] = s.Test.At(i).Features
		}
	})
	if testErr != nil {
		t.Fatal(testErr)
	}
	return testDet, testX
}

// mustServer mounts a server over a fresh fleet of the given models.
func mustServer(t testing.TB, models map[string]*detector.Detector, cfg Config) *Server {
	t.Helper()
	f, err := NewFleet(models, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(f)
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	d, _ := testDetector(t)
	return newTestServerOver(t, d, cfg)
}

func newTestServerOver(t testing.TB, d *detector.Detector, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := mustServer(t, map[string]*detector.Detector{"dvfs-rf": d}, cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestAssessCoalescedMatchesSequential is the acceptance test of the
// serving layer: N concurrent /v1/assess requests must return decisions
// element-wise identical to direct sequential Assess. The requests really
// are concurrent: every one of them is held inside its assessment (at the
// gate) until all n are in flight at once on the shard's gauge, and only
// then released together. The last n-distinct requests repeat earlier
// vectors bit for bit: a repeat is assessed like any other request, and
// answers the same bits as its first occurrence. (The name predates the
// inline path; the test no longer has any coalescing to check.)
func TestAssessCoalescedMatchesSequential(t *testing.T) {
	const n, distinct = 96, 80
	d, X := gatedDetector(t)
	s, ts := newTestServerOver(t, d, Config{})

	want := make([]detector.Result, n)
	for i := 0; i < n; i++ {
		var err error
		if want[i], err = d.Assess(X[i%distinct]); err != nil {
			t.Fatal(err)
		}
	}

	release := testgate.Hold(t)
	got := make([]AssessResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, err := json.Marshal(AssessRequest{Features: X[i%distinct]})
			if err != nil {
				errs[i] = err
				return
			}
			resp, err := http.Post(ts.URL+"/v1/assess", "application/json", bytes.NewReader(raw))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&got[i])
		}(i)
	}
	waitFor(t, "every request to be in flight at once", func() bool {
		return s.Fleet().Stats()[0].Inflight == n
	})
	release()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	for i := range got {
		w := want[i]
		g := got[i]
		if g.Prediction != w.Prediction || g.Entropy != w.Entropy || g.Decision != w.Decision.String() {
			t.Fatalf("request %d diverged from sequential Assess:\n got %+v\nwant %+v", i, g, w)
		}
		if len(g.VoteDist) != len(w.VoteDist) {
			t.Fatalf("request %d: vote dist length %d vs %d", i, len(g.VoteDist), len(w.VoteDist))
		}
		for j := range g.VoteDist {
			if g.VoteDist[j] != w.VoteDist[j] {
				t.Fatalf("request %d: vote dist diverged at %d", i, j)
			}
		}
	}

	st := s.Fleet().Stats()
	if len(st) != 1 {
		t.Fatalf("expected 1 shard, got %d", len(st))
	}
	if st[0].Requests != n {
		t.Fatalf("stats requests %d, want %d", st[0].Requests, n)
	}
	if st[0].Inflight != 0 {
		t.Fatalf("in-flight gauge %d after every request answered, want 0", st[0].Inflight)
	}

	// The /stats endpoint serves the same snapshot.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire struct {
		Shards []ShardStats `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if len(wire.Shards) != 1 || wire.Shards[0].Requests != n || wire.Shards[0].Model != "dvfs-rf" {
		t.Fatalf("/stats wire mismatch: %+v", wire.Shards)
	}
	if total := wire.Shards[0].Benign + wire.Shards[0].Malware + wire.Shards[0].Rejected; total != n {
		t.Fatalf("decision tally %d, want %d", total, n)
	}
}

// TestBatchEndpointMatchesAssessBatch checks the client-batched path.
func TestBatchEndpointMatchesAssessBatch(t *testing.T) {
	d, X := testDetector(t)
	s, ts := newTestServer(t, Config{})

	batch := X[:20]
	want, err := d.AssessBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/assess/batch", BatchRequest{Batch: batch})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got BatchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Model != "dvfs-rf" || len(got.Results) != len(want) {
		t.Fatalf("batch response shape: model=%q n=%d", got.Model, len(got.Results))
	}
	for i := range want {
		if got.Results[i].Prediction != want[i].Prediction ||
			got.Results[i].Entropy != want[i].Entropy ||
			got.Results[i].Decision != want[i].Decision.String() {
			t.Fatalf("batch[%d] diverged: %+v vs %+v", i, got.Results[i], want[i])
		}
	}
	st := s.Fleet().Stats()[0]
	if st.BatchRequests != 1 || st.BatchSamples != int64(len(batch)) {
		t.Fatalf("batch counters: %+v", st)
	}
}

func TestRequestValidation(t *testing.T) {
	_, X := testDetector(t)
	_, ts := newTestServer(t, Config{})

	cases := []struct {
		name string
		url  string
		body string
		code int
	}{
		{"empty features", "/v1/assess", `{"features":[]}`, http.StatusBadRequest},
		{"missing features", "/v1/assess", `{}`, http.StatusBadRequest},
		{"wrong dim", "/v1/assess", `{"features":[1,2,3]}`, http.StatusBadRequest},
		{"unknown field", "/v1/assess", `{"features":[1],"nope":true}`, http.StatusBadRequest},
		{"not json", "/v1/assess", `hello`, http.StatusBadRequest},
		{"empty body", "/v1/assess", ``, http.StatusBadRequest},
		{"two documents", "/v1/assess", `{"features":[1]}{"features":[1]}`, http.StatusBadRequest},
		{"unknown model", "/v1/assess", `{"model":"nope","features":[1]}`, http.StatusNotFound},
		{"empty batch", "/v1/assess/batch", `{"batch":[]}`, http.StatusBadRequest},
		{"empty batch body", "/v1/assess/batch", ``, http.StatusBadRequest},
		{"batch missing entirely", "/v1/assess/batch", `{}`, http.StatusBadRequest},
		{"ragged batch", "/v1/assess/batch", `{"batch":[[1,2]]}`, http.StatusBadRequest},
		{"batch unknown model", "/v1/assess/batch", `{"model":"nope","batch":[[1,2]]}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.code {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.code, body)
			}
			var e ErrorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("non-JSON error body: %s", body)
			}
		})
	}

	// A valid request still works after the rejected ones (no poisoned state).
	resp, body := postJSON(t, ts.URL+"/v1/assess", AssessRequest{Features: X[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid request after rejects: status %d: %s", resp.StatusCode, body)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Every 405 must name the accepted methods in the Allow header
	// (RFC 9110) and keep the JSON error envelope.
	for _, url := range []string{"/v1/assess", "/v1/assess/batch", "/v1/assess/stream"} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s: status %d", url, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
			t.Fatalf("GET %s: Allow header %q, want %q", url, allow, http.MethodPost)
		}
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("GET %s: non-JSON 405 body: %s", url, body)
		}
	}
	for _, url := range []string{"/stats", "/healthz"} {
		resp, err := http.Post(ts.URL+url, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s: status %d", url, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
			t.Fatalf("POST %s: Allow header %q, want %q", url, allow, http.MethodGet)
		}
	}
	// The multi-method admin path advertises its full method set.
	req, err := http.NewRequest(http.MethodPatch, ts.URL+"/v1/models/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PATCH /v1/models/x: status %d", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "GET, DELETE" {
		t.Fatalf("PATCH /v1/models/x: Allow header %q, want \"GET, DELETE\"", allow)
	}
}

func TestOversizedBatchRejected(t *testing.T) {
	_, X := testDetector(t)
	_, ts := newTestServer(t, Config{MaxBatchSamples: 4})
	batch := [][]float64{X[0], X[1], X[2], X[3], X[4]}
	resp, body := postJSON(t, ts.URL+"/v1/assess/batch", BatchRequest{Batch: batch})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	_, X := testDetector(t)
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	resp, body := postJSON(t, ts.URL+"/v1/assess", AssessRequest{Features: X[0]})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, body)
	}
}

func TestModelsAndHealthz(t *testing.T) {
	d, _ := testDetector(t)
	tuned, err := d.WithOptions(detector.WithThreshold(0.25))
	if err != nil {
		t.Fatal(err)
	}
	s := mustServer(t, map[string]*detector.Detector{"a": d, "b": tuned}, Config{DefaultModel: "b"})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var models ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	if len(models.Models) != 2 {
		t.Fatalf("models: %+v", models)
	}
	if models.Models[0].Name != "a" || models.Models[0].Default ||
		models.Models[1].Name != "b" || !models.Models[1].Default {
		t.Fatalf("model listing wrong: %+v", models.Models)
	}
	if models.Models[0].InputDim != d.InputDim() || models.Models[0].Members != d.Members() {
		t.Fatalf("model info lost: %+v", models.Models[0])
	}
	if models.Models[1].Threshold != 0.25 {
		t.Fatalf("per-shard threshold lost: %+v", models.Models[1])
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hz.StatusCode)
	}

	// Two shards and no default: a model-less request must be refused.
	s2 := mustServer(t, map[string]*detector.Detector{"a": d, "b": tuned}, Config{})
	defer s2.Close()
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	r2, body := postJSON(t, ts2.URL+"/v1/assess", AssessRequest{Features: make([]float64, d.InputDim())})
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("ambiguous model routing: status %d: %s", r2.StatusCode, body)
	}
}

func TestRoutingByModelName(t *testing.T) {
	d, X := testDetector(t)
	// Same pipeline, radically different thresholds: routing is observable
	// through the decision.
	strict, err := d.WithOptions(detector.WithThreshold(0))
	if err != nil {
		t.Fatal(err)
	}
	s := mustServer(t, map[string]*detector.Detector{"normal": d, "strict": strict}, Config{DefaultModel: "normal"})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Find a sample with non-zero entropy so threshold 0 rejects it.
	var x []float64
	for _, cand := range X {
		r, err := d.Assess(cand)
		if err != nil {
			t.Fatal(err)
		}
		if r.Entropy > 0 {
			x = cand
			break
		}
	}
	if x == nil {
		t.Skip("no uncertain sample in test split")
	}
	resp, body := postJSON(t, ts.URL+"/v1/assess", AssessRequest{Model: "strict", Features: x})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got AssessResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Model != "strict" || got.Decision != "reject" {
		t.Fatalf("routed to wrong shard: %+v", got)
	}
}

func TestShutdownShedsNewRequests(t *testing.T) {
	d, X := testDetector(t)
	s := mustServer(t, map[string]*detector.Detector{"m": d}, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	s.Close() // close the fleet; the handler must now shed with 503
	resp, body := postJSON(t, ts.URL+"/v1/assess", AssessRequest{Features: X[0]})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown status %d: %s", resp.StatusCode, body)
	}
	// Close is idempotent.
	s.Close()
}

func TestNewValidation(t *testing.T) {
	d, _ := testDetector(t)
	if _, err := NewFleet(map[string]*detector.Detector{"": d}, Config{}); err == nil {
		t.Fatal("expected empty-name error")
	}
	if _, err := NewFleet(map[string]*detector.Detector{"m": nil}, Config{}); err == nil {
		t.Fatal("expected nil-detector error")
	}
	if _, err := NewFleet(map[string]*detector.Detector{"m": d}, Config{DefaultModel: "other"}); err == nil {
		t.Fatal("expected unknown-default error")
	}
}
