package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"trusthmd/internal/gen"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/verdictstore"
)

// newLoopServer builds a server whose fleet taps every verdict into a
// fresh store.
func newLoopServer(t testing.TB) (*Server, *httptest.Server, *verdictstore.Store) {
	t.Helper()
	store, err := verdictstore.Open(t.TempDir(), verdictstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := testDetector(t)
	s := mustServer(t, map[string]*detector.Detector{"dvfs-rf": d}, Config{Verdicts: store})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
		store.Close()
	})
	return s, ts, store
}

func getJSON(t testing.TB, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestVerdictTapMatchesResponses is the store half of the closed-loop
// acceptance criterion at package level: every served verdict (repeated
// vectors included) lands in the store, element-wise identical to the
// synchronous HTTP responses, and /v1/verdicts returns them filtered.
func TestVerdictTapMatchesResponses(t *testing.T) {
	_, ts, store := newLoopServer(t)
	_, xs := testDetector(t)

	var want []AssessResponse
	for i := 0; i < 30; i++ {
		x := xs[i%10] // repeated vectors are served verdicts too, each stored
		dev := fmt.Sprintf("dev-%d", i%2)
		resp, body := postJSON(t, ts.URL+"/v1/assess", AssessRequest{Device: dev, Features: x})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("assess %d: %d %s", i, resp.StatusCode, body)
		}
		var ar AssessResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Fatal(err)
		}
		want = append(want, ar)
	}

	recs, err := store.Query(verdictstore.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("stored %d verdicts, served %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.Prediction != want[i].Prediction || rec.Entropy != want[i].Entropy ||
			rec.Decision != want[i].Decision || rec.Version != want[i].Version ||
			rec.Model != want[i].Model {
			t.Fatalf("verdict %d diverged from response: %+v vs %+v", i, rec, want[i])
		}
		if rec.Device != fmt.Sprintf("dev-%d", i%2) || rec.Source != "assess" {
			t.Fatalf("verdict %d provenance: %+v", i, rec)
		}
		if rec.Decision != "reject" && rec.Features != nil {
			t.Fatalf("verdict %d: accepted verdict stored features", i)
		}
	}

	// The HTTP range query sees the same records, filtered by device.
	resp, out := getJSON(t, ts.URL+"/v1/verdicts?device=dev-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verdicts query: %d", resp.StatusCode)
	}
	if int(out["count"].(float64)) != 15 {
		t.Fatalf("device filter count = %v, want 15", out["count"])
	}

	// since_seq pagination.
	resp, out = getJSON(t, ts.URL+"/v1/verdicts?since_seq=21")
	if resp.StatusCode != http.StatusOK || int(out["count"].(float64)) != 10 {
		t.Fatalf("since_seq query: %d count=%v", resp.StatusCode, out["count"])
	}

	// Bad params are 400.
	for _, q := range []string{"?since_seq=x", "?since=yesterday", "?limit=0"} {
		resp, err := http.Get(ts.URL + "/v1/verdicts" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestBatchVerdictTapMatchesResponses is the same criterion for POST
// /v1/assess/batch, whose rows reach the store as one AppendBatch group:
// every row — repeated rows and rejections included — is stored element-wise
// identical to its response row, in request order, with the request row
// kept as Features on rejections only, and reads back the same after the
// store is closed and reopened.
func TestBatchVerdictTapMatchesResponses(t *testing.T) {
	dir := t.TempDir()
	store, err := verdictstore.Open(dir, verdictstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	d, xs := testDetector(t)
	// Threshold 0 rejects every row the ensemble is not unanimous on, so a
	// batch mixes rejected and accepted rows.
	strict, err := d.WithOptions(detector.WithThreshold(0))
	if err != nil {
		t.Fatal(err)
	}
	s := mustServer(t, map[string]*detector.Detector{"dvfs-rf": strict}, Config{Verdicts: store})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	var wantRows []AssessResponse
	var wantX [][]float64
	var groups []int                                                                  // rows per request
	for _, batch := range [][][]float64{xs[:40], xs[20:60], {xs[3], xs[3], xs[70]}} { // overlaps and repeats are assessed again
		resp, body := postJSON(t, ts.URL+"/v1/assess/batch", BatchRequest{Device: "dev-b", Batch: batch})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: %d %s", resp.StatusCode, body)
		}
		var br BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatal(err)
		}
		if len(br.Results) != len(batch) {
			t.Fatalf("%d results for %d rows", len(br.Results), len(batch))
		}
		wantRows = append(wantRows, br.Results...)
		wantX = append(wantX, batch...)
		groups = append(groups, len(batch))
	}
	check := func(store *verdictstore.Store) {
		t.Helper()
		recs, err := store.Query(verdictstore.Filter{})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != len(wantRows) {
			t.Fatalf("stored %d verdicts, served %d", len(recs), len(wantRows))
		}
		rejected, accepted := 0, 0
		for i, rec := range recs {
			want := wantRows[i]
			if rec.Seq != uint64(i+1) || rec.Prediction != want.Prediction || rec.Entropy != want.Entropy ||
				rec.Decision != want.Decision || rec.Version != want.Version || rec.Model != want.Model ||
				!sameFloats(rec.Votes, want.VoteDist) {
				t.Fatalf("verdict %d diverged from its response row: %+v vs %+v", i, rec, want)
			}
			if rec.Device != "dev-b" || rec.Source != "batch" {
				t.Fatalf("verdict %d provenance: %+v", i, rec)
			}
			if rec.Decision == "reject" {
				rejected++
				if !sameFloats(rec.Features, wantX[i]) {
					t.Fatalf("rejected verdict %d stored features %v, request row %v", i, rec.Features, wantX[i])
				}
			} else {
				accepted++
				if rec.Features != nil {
					t.Fatalf("verdict %d: accepted verdict stored features", i)
				}
			}
		}
		if rejected == 0 || accepted == 0 {
			t.Fatalf("%d rejected, %d accepted rows; the test needs both", rejected, accepted)
		}
		// One latency and one clock reading per request: its rows were
		// answered, and stored, together.
		at := 0
		for _, n := range groups {
			for _, rec := range recs[at : at+n] {
				if rec.LatencyMicros != recs[at].LatencyMicros || !rec.Time.Equal(recs[at].Time) {
					t.Fatalf("request starting at verdict %d: seq %d has latency %d, time %v; the first row %d, %v",
						at+1, rec.Seq, rec.LatencyMicros, rec.Time, recs[at].LatencyMicros, recs[at].Time)
				}
			}
			at += n
		}
	}
	check(store)
	if errs := s.Fleet().verdictAppendErrs.Load(); errs != 0 {
		t.Fatalf("%d verdict append errors", errs)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := verdictstore.Open(dir, verdictstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	check(reopened)
}

func TestVerdictsEndpointDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/verdicts")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("verdicts without a store: %d, want 404", resp.StatusCode)
	}
}

// TestStatsClosedLoopCounters asserts the three closed-loop /stats keys:
// present (zero-valued) without attachments, and live once the store and
// a caused swap exist.
func TestStatsClosedLoopCounters(t *testing.T) {
	// Bare server: keys exist with zero values.
	_, bare := newTestServer(t, Config{})
	resp, out := getJSON(t, bare.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	for _, key := range []string{"verdicts_stored", "retrains_triggered", "last_swap_cause"} {
		if _, ok := out[key]; !ok {
			t.Fatalf("stats missing %q on a bare server: %v", key, out)
		}
	}
	if out["verdicts_stored"].(float64) != 0 || out["last_swap_cause"].(string) != "" {
		t.Fatalf("bare stats not zero-valued: %v", out)
	}

	// Wired server: counters move.
	s, ts, _ := newLoopServer(t)
	d, xs := testDetector(t)
	for i := 0; i < 5; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/assess", AssessRequest{Features: xs[i]}); resp.StatusCode != 200 {
			t.Fatalf("assess: %d %s", resp.StatusCode, body)
		}
	}
	if _, err := s.Fleet().Swap("dvfs-rf", d, "drift-retrain"); err != nil {
		t.Fatal(err)
	}

	_, out = getJSON(t, ts.URL+"/stats")
	if got := out["verdicts_stored"].(float64); got != 5 {
		t.Fatalf("verdicts_stored = %v, want 5", got)
	}
	if got := out["last_swap_cause"].(string); got != "drift-retrain" {
		t.Fatalf("last_swap_cause = %q", got)
	}
	if got := out["retrains_triggered"].(float64); got != 0 {
		t.Fatalf("retrains_triggered = %v, want 0 (no controller attached)", got)
	}
}

// TestRetrainControllerClosedLoop exercises the full automatic loop at
// package level: a drifting device's verdicts accumulate in the store,
// the controller's per-device monitor alarms, forensics reach quorum, a
// background retrain fires and Swap installs the new version — all
// while the healthy device keeps serving.
func TestRetrainControllerClosedLoop(t *testing.T) {
	splits, err := gen.DVFSWithSizes(5, gen.Sizes{Train: 320, Test: 80, Unknown: 120})
	if err != nil {
		t.Fatal(err)
	}
	det, err := detector.New(splits.Train,
		detector.WithModel("rf"), detector.WithEnsembleSize(9), detector.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	store, err := verdictstore.Open(t.TempDir(), verdictstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// The fleet's prepare hook must reach the retrained model with no
	// controller wiring. 0.45 rejects exactly what 0.40 does for nine
	// members (the smallest split entropy is H(1/9) ≈ 0.50), so the loop
	// itself runs as without the hook.
	const prepared = 0.45
	fleet, err := NewFleet(map[string]*detector.Detector{"hmd": det}, Config{
		Verdicts: store,
		PrepareDetector: func(d *detector.Detector) (*detector.Detector, error) {
			return d.WithOptions(detector.WithThreshold(prepared))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	ctrl, err := NewRetrainController(RetrainConfig{
		Store:          store,
		Fleet:          fleet,
		Model:          "hmd",
		Base:           splits.Train,
		Interval:       20 * time.Millisecond,
		Drift:          detector.DriftConfig{Window: 16},
		BaselineSample: 100,
		Sustain:        3,
		Quorum:         20,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ctrlDone := make(chan error, 1)
	go func() { ctrlDone <- ctrl.Run(ctx) }()
	defer func() { cancel(); <-ctrlDone }()

	epochBefore := fleet.Epoch()
	deadline := time.Now().Add(30 * time.Second)
	sent := 0
	for fleet.Epoch() == epochBefore {
		if time.Now().After(deadline) {
			t.Fatalf("no retrain after %d verdicts; controller: %+v", sent, ctrl.Stats())
		}
		// Interleave: a healthy device on known data, a drifting edge
		// device on the zero-day split.
		known := splits.Test.At(sent % splits.Test.Len()).Features
		if _, err := fleet.Assess(ctx, AssessSpec{Device: "healthy", Features: known}); err != nil {
			t.Fatal(err)
		}
		unknown := splits.Unknown.At(sent % splits.Unknown.Len()).Features
		if _, err := fleet.Assess(ctx, AssessSpec{Device: "edge-7", Features: unknown}); err != nil {
			t.Fatal(err)
		}
		sent++
		time.Sleep(time.Millisecond)
	}

	// The swap must be attributed to the loop and counted.
	if cause := fleet.LastSwapCause(); cause != "drift-retrain" {
		t.Fatalf("last swap cause %q, want drift-retrain", cause)
	}
	waitDeadline := time.Now().Add(5 * time.Second)
	for ctrl.Stats().Retrains < 1 {
		if time.Now().After(waitDeadline) {
			t.Fatalf("swap landed but retrains counter stayed at %d", ctrl.Stats().Retrains)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Serving continued throughout and continues now, on the new version.
	out, err := fleet.Assess(ctx, AssessSpec{Device: "healthy", Features: splits.Test.At(0).Features})
	if err != nil {
		t.Fatal(err)
	}
	if out.Version < 2 {
		t.Fatalf("post-retrain version %d, want >= 2", out.Version)
	}
	if m := fleet.Models(); len(m) != 1 || m[0].Version < 2 || m[0].Threshold != prepared {
		t.Fatalf("retrained model skipped the fleet's prepare hook: %+v", m)
	}
}

func TestRetrainControllerValidation(t *testing.T) {
	splits, err := gen.DVFSWithSizes(3, gen.Sizes{Train: 280, Test: 40, Unknown: 40})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := testDetector(t)
	store, err := verdictstore.Open(t.TempDir(), verdictstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	fleet, err := NewFleet(map[string]*detector.Detector{"m": d}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	cases := []RetrainConfig{
		{Fleet: fleet, Model: "m", Base: splits.Train},                     // no store
		{Store: store, Model: "m", Base: splits.Train},                     // no fleet
		{Store: store, Fleet: fleet, Base: splits.Train},                   // no model
		{Store: store, Fleet: fleet, Model: "m"},                           // no base
		{Store: store, Fleet: fleet, Model: "missing", Base: splits.Train}, // unknown shard
	}
	for i, cfg := range cases {
		if _, err := NewRetrainController(cfg); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}
