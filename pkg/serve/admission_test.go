package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"trusthmd/internal/testgate"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/verdictstore"
)

// TestAssessShedsWithRetryAfter: a shard at its in-flight cap sheds
// /v1/assess with 503 + Retry-After (both assessment endpoints shed the
// same way).
func TestAssessShedsWithRetryAfter(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 1})
	// Saturate the shard's admission gauge from the inside — the
	// deterministic way to make "overloaded" hold for exactly one request.
	sh, err := srv.fleet.resolve("dvfs-rf", "")
	if err != nil {
		t.Fatal(err)
	}
	sh.inflight.Add(1)

	_, X := testDetector(t)
	resp, body := postJSON(t, ts.URL+"/v1/assess", AssessRequest{Features: X[0]})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	sh.inflight.Add(-1)
	resp, body = postJSON(t, ts.URL+"/v1/assess", AssessRequest{Features: X[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d: %s", resp.StatusCode, body)
	}
	if got := sh.inflight.Load(); got != 0 {
		t.Fatalf("in-flight gauge %d after the request answered, want 0", got)
	}
	if _, stats := srv.fleet.StatsWithEpoch(); stats[0].Shed != 1 || stats[0].Requests != 1 {
		t.Fatalf("shed %d and requests %d, want 1 and 1 (a shed is not a request)", stats[0].Shed, stats[0].Requests)
	}
}

// TestBatchShedsWithRetryAfter: /v1/assess/batch sheds at the in-flight
// cap with 503 + Retry-After exactly like /v1/assess.
func TestBatchShedsWithRetryAfter(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 1})
	sh, err := srv.fleet.resolve("dvfs-rf", "")
	if err != nil {
		t.Fatal(err)
	}
	sh.inflight.Add(1)

	_, X := testDetector(t)
	resp, body := postJSON(t, ts.URL+"/v1/assess/batch", BatchRequest{Batch: X[:4]})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("batch shed response missing Retry-After")
	}
	var errResp ErrorResponse
	if err := json.Unmarshal(body, &errResp); err != nil || errResp.Error == "" {
		t.Fatalf("shed body is not the JSON error envelope: %s", body)
	}

	// Releasing the load admits the same batch; the reservation is one
	// admission unit, so an idle shard takes a batch of any size.
	sh.inflight.Add(-1)
	resp, body = postJSON(t, ts.URL+"/v1/assess/batch", BatchRequest{Batch: X[:4]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d: %s", resp.StatusCode, body)
	}
	if got := sh.inflight.Load(); got != 0 {
		t.Fatalf("batch reservation leaked: %d", got)
	}
	if _, stats := srv.fleet.StatsWithEpoch(); stats[0].Shed != 1 {
		t.Fatalf("shed counter %d, want 1", stats[0].Shed)
	}
}

// TestStatsInflightGauge: /stats exposes the fleet-wide shed_total and
// each shard's inflight gauge, epoch-consistent with the rest of the
// snapshot.
func TestStatsInflightGauge(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, X := testDetector(t)
	for i := 0; i < 4; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/assess", AssessRequest{Device: fmt.Sprintf("d%d", i), Features: X[i]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("assess %d: status %d: %s", i, resp.StatusCode, body)
		}
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		FleetEpoch uint64 `json:"fleet_epoch"`
		ShedTotal  *int64 `json:"shed_total"`
		Shards     []struct {
			ShardStats
			Inflight *int64 `json:"inflight"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.ShedTotal == nil {
		t.Fatal("/stats missing shed_total")
	}
	if *stats.ShedTotal != 0 {
		t.Fatalf("shed_total %d, want 0 under no load", *stats.ShedTotal)
	}
	if len(stats.Shards) != 1 {
		t.Fatalf("expected 1 shard: %+v", stats.Shards)
	}
	st := stats.Shards[0]
	if st.Inflight == nil {
		t.Fatal("/stats shard missing inflight")
	}
	if *st.Inflight != 0 {
		t.Fatalf("idle shard shows %d in flight", *st.Inflight)
	}
	if st.Requests != 4 || st.Batches != 4 || st.EarlyFlushes != 0 {
		t.Fatalf("requests %d, batches %d, early flushes %d; want 4, 4 and 0", st.Requests, st.Batches, st.EarlyFlushes)
	}
	if stats.FleetEpoch == 0 {
		t.Fatal("fleet_epoch missing from /stats")
	}
}

// TestFleetSwapUnderLoadLossless: hot-swapping a shard three times under
// sustained concurrent Fleet.Assess load keyed to one device must lose
// zero requests, and every response — whichever version answered — must
// carry the correct verdict. Each swap lands only after more load has
// been served since the last one, and every worker sends one more request
// after the last swap, which must be answered by the final version.
func TestFleetSwapUnderLoadLossless(t *testing.T) {
	d, X := testDetector(t)
	f, err := NewFleet(map[string]*detector.Detector{"m": d}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	want := make([]detector.Result, len(X))
	for i, x := range X {
		r, err := d.Assess(x)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	const workers, swaps = 8, 3
	var served atomic.Int64
	done := make(chan struct{})
	var halt sync.Once
	var wg sync.WaitGroup
	// On any exit, Fatal included, stop the workers before f.Close.
	defer wg.Wait()
	defer halt.Do(func() { close(done) })
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lastVersion := uint64(0)
			for i := 0; ; i++ {
				last := false
				select {
				case <-done:
					last = true
				default:
				}
				j := (w*31 + i) % len(X)
				out, err := f.Assess(context.Background(), AssessSpec{Device: "hot-device", Features: X[j]})
				if err != nil {
					t.Errorf("worker %d request %d lost: %v", w, i, err)
					return
				}
				served.Add(1)
				if out.Version < lastVersion {
					t.Errorf("version went backwards: %d after %d", out.Version, lastVersion)
					return
				}
				lastVersion = out.Version
				if !reflect.DeepEqual(out.Result, want[j]) {
					t.Errorf("response diverged during swap (version %d)", out.Version)
					return
				}
				if last {
					if out.Version != 1+swaps {
						t.Errorf("worker %d: request after the last swap answered by version %d, want %d", w, out.Version, 1+swaps)
					}
					return
				}
			}
		}(w)
	}
	for i := 0; i < swaps; i++ {
		at := served.Load()
		waitFor(t, "more load before the next swap", func() bool { return served.Load() >= at+workers })
		if _, err := f.Swap("m", d, "swap"); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	halt.Do(func() { close(done) })
	wg.Wait()
	_, stats := f.StatsWithEpoch()
	if got := stats[0].Requests; got != served.Load() {
		t.Fatalf("requests %d, want %d (lossless swap)", got, served.Load())
	}
	if stats[0].Errors != 0 || stats[0].Shed != 0 || stats[0].Version != 1+swaps {
		t.Fatalf("swap under load errored/shed or missed a swap: %+v", stats[0])
	}
}

// TestFleetClosedRejects: a closed fleet refuses every assessment with
// ErrClosed, counts none of them, and a second Close is a no-op.
func TestFleetClosedRejects(t *testing.T) {
	d, X := testDetector(t)
	f, err := NewFleet(map[string]*detector.Detector{"m": d}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	f.Close() // idempotent
	if _, err := f.Assess(context.Background(), AssessSpec{Features: X[0]}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, err := f.Assess(context.Background(), AssessSpec{Model: "m", Features: X[1]}); !errors.Is(err, ErrClosed) {
		t.Fatalf("named model: err = %v, want ErrClosed", err)
	}
	for _, st := range f.Stats() {
		if st.Requests != 0 || st.Inflight != 0 {
			t.Fatalf("closed fleet counted work: %+v", st)
		}
	}
}

// TestFleetCloseWaitsForAssessments: Close lands while n assessments are
// held inside the detector. From then on the fleet refuses new work, but
// Close returns only after every held call has answered with the direct
// verdict and recorded it in the verdict store.
func TestFleetCloseWaitsForAssessments(t *testing.T) {
	const n = 10
	d, X := gatedDetector(t)
	store, err := verdictstore.Open(t.TempDir(), verdictstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	f, err := NewFleet(map[string]*detector.Detector{"m": d}, Config{Verdicts: store})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := f.resolve("m", "")
	if err != nil {
		t.Fatal(err)
	}

	release := testgate.Hold(t)
	got := make([]AssessOutcome, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = f.Assess(context.Background(), AssessSpec{Features: X[i]})
		}()
	}
	waitFor(t, "every call to be held in flight", func() bool { return sh.inflight.Load() == n })

	closed := make(chan struct{})
	go func() {
		f.Close()
		close(closed)
	}()
	// resolve does not assess, so it can probe for the close without
	// being held at the gate itself.
	waitFor(t, "Close to refuse new work", func() bool {
		_, err := f.resolve("m", "")
		return errors.Is(err, ErrClosed)
	})
	if _, err := f.Assess(context.Background(), AssessSpec{Features: X[0]}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Assess after Close: err = %v, want ErrClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while assessments were still in flight")
	default:
	}
	release()
	wg.Wait()
	<-closed
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("call %d lost to Close: %v", i, errs[i])
		}
		want, err := d.Assess(X[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i].Result, want) {
			t.Fatalf("call %d diverged from Assess:\n got %+v\nwant %+v", i, got[i].Result, want)
		}
	}
	if st := store.Stats(); st.Appended != n {
		t.Fatalf("store holds %d appends when Close returned, want %d", st.Appended, n)
	}
	f.Close() // idempotent
}

// TestFleetCloseWaitsForBatches: a /v1/assess/batch held inside its
// assessment across Close keeps Close waiting until the batch's verdicts
// are stored, so the store its owner closes right after Close (as the
// daemon does) holds every row, and nothing is lost as an append error.
func TestFleetCloseWaitsForBatches(t *testing.T) {
	const n = 10
	d, X := gatedDetector(t)
	dir := t.TempDir()
	store, err := verdictstore.Open(dir, verdictstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(map[string]*detector.Detector{"m": d}, Config{Verdicts: store})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(f))
	t.Cleanup(ts.Close) // after the gate's release, which Hold registers later
	sh, err := f.resolve("m", "")
	if err != nil {
		t.Fatal(err)
	}

	release := testgate.Hold(t)
	raw, err := json.Marshal(BatchRequest{Device: "dev", Batch: X[:n]})
	if err != nil {
		t.Fatal(err)
	}
	type reply struct {
		status int
		err    error
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/assess/batch", "application/json", bytes.NewReader(raw))
		if err != nil {
			done <- reply{err: err}
			return
		}
		resp.Body.Close()
		done <- reply{status: resp.StatusCode}
	}()
	waitFor(t, "the batch to be held in flight", func() bool { return sh.inflight.Load() == n })

	closed := make(chan struct{})
	go func() {
		f.Close()
		store.Close()
		close(closed)
	}()
	waitFor(t, "Close to refuse new work", func() bool {
		_, err := f.resolve("m", "")
		return errors.Is(err, ErrClosed)
	})
	if resp, body := postJSON(t, ts.URL+"/v1/assess/batch", BatchRequest{Batch: X[:1]}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("batch after Close: status %d, want 503: %s", resp.StatusCode, body)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a batch was still in flight")
	default:
	}
	release()
	r := <-done
	<-closed
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("held batch: status %d, err %v", r.status, r.err)
	}
	if got := f.verdictAppendErrs.Load(); got != 0 {
		t.Fatalf("%d verdicts lost as append errors", got)
	}
	back, err := verdictstore.Open(dir, verdictstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	recs, err := back.Query(verdictstore.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("store holds %d records after Close, want %d", len(recs), n)
	}
}

// TestAssessOnePropagatesError: a detector error fails the call with that
// error, counts it, and leaves nothing in flight.
func TestAssessOnePropagatesError(t *testing.T) {
	d, _ := testDetector(t)
	f, err := NewFleet(map[string]*detector.Detector{"m": d}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sh, err := f.resolve("m", "")
	if err != nil {
		t.Fatal(err)
	}
	// Wrong dimensionality reaches the pipeline only because this bypasses
	// Fleet.Assess's validation.
	votes := []float64{7}
	if _, err := sh.assessOne([]float64{1, 2, 3}, votes); err == nil {
		t.Fatal("expected projection error")
	}
	if votes[0] != 7 {
		t.Fatal("a failed assessment wrote into the caller's vote buffer")
	}
	st := f.Stats()[0]
	if st.Errors != 1 || st.Requests != 1 || st.Inflight != 0 {
		t.Fatalf("errors %d, requests %d, in flight %d; want 1, 1 and 0", st.Errors, st.Requests, st.Inflight)
	}
}
