package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trusthmd/internal/gen"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/serve"
	"trusthmd/pkg/verdictstore"
)

// TestRetrainE2EClosedLoop is the closed-loop e2e: the full automatic
// loop through the daemon's own wiring. `make race` (and so CI) runs it
// under the race detector with the whole of this package.
//
//   - A tiny model is trained and saved; the daemon (verdict store, fleet
//     tapping into it, HTTP transport, retrain controller) boots through
//     newDaemon behind httptest, with the store rotating small segments.
//   - Two device clients serve concurrently: "healthy" replays known
//     test windows, "edge-7" replays the zero-day split — injected drift.
//   - The controller tails the store, the drifting device's entropies trip
//     its DriftMonitor, rejected-verdict forensics reach quorum, a
//     background retrain fires and Fleet.Swap installs version 2 with
//     ZERO lost requests (every in-flight and subsequent request answers
//     200; the swap-retry loop absorbs the race).
//   - The verdict store then holds exactly the verdicts served — per
//     device, element-wise identical to the synchronous HTTP responses —
//     and still does after a close/reopen (daemon restart, crash-safe
//     recovery).
//
// TRUSTHMD_RETRAIN_STATS_OUT=<path> additionally writes the final /stats
// snapshot (verdict-store occupancy included) for the CI artifact.
func TestRetrainE2EClosedLoop(t *testing.T) {
	dir := t.TempDir()
	splits, err := gen.DVFSWithSizes(5, gen.Sizes{Train: 320, Test: 60, Unknown: 160})
	if err != nil {
		t.Fatal(err)
	}
	det, err := detector.New(splits.Train,
		detector.WithModel("rf"), detector.WithEnsembleSize(9), detector.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	gobPath := filepath.Join(dir, "det.gob")
	if err := det.SaveFile(gobPath); err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(dir, "train.csv")
	cf, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := splits.Train.WriteCSV(cf); err != nil {
		t.Fatal(err)
	}
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}

	// Small segments so rotation happens live, ample retention so nothing
	// served is dropped (the element-wise comparison needs every record).
	verdictDir := filepath.Join(dir, "verdicts")
	cfg := flagDefaults()
	cfg.loadPath = gobPath
	cfg.serve.DefaultModel = "default"
	cfg.verdictDir = verdictDir
	cfg.verdicts.SegmentBytes = 32 << 10
	cfg.verdicts.MaxSegments = 64
	cfg.autoRetrain = true
	cfg.retrainData = csvPath
	cfg.retrain.Interval = 20 * time.Millisecond
	cfg.retrain.Drift.Window = 16
	cfg.retrain.BaselineSample = 120
	cfg.retrain.Sustain = 3
	cfg.retrain.Quorum = 20
	d, ts := bootDaemon(t, cfg)
	store, ctrl := d.store, d.retrain
	shutdown := func() {
		ts.Close()
		if err := d.close(); err != nil {
			t.Errorf("daemon close: %v", err)
		}
	}

	// Two sequential per-device clients: every request must answer 200 —
	// that is the zero-lost-requests assertion, held across the hot swap.
	// Fatal client errors arrive over a channel (the responses slices are
	// only read after wg.Wait, so they need no lock).
	var stop atomic.Bool
	errs := make(chan error, 2)
	var healthy, edge []serve.AssessResponse
	var healthyV, edgeV atomic.Uint64
	runClient := func(device string, vecAt func(int) []float64, n int, log *[]serve.AssessResponse, seen *atomic.Uint64, wg *sync.WaitGroup) {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			body, _ := json.Marshal(serve.AssessRequest{Device: device, Features: vecAt(i % n)})
			resp, err := http.Post(ts.URL+"/v1/assess", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			payload, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- errors.New(device + ": lost request: " + resp.Status + " " + string(payload))
				return
			}
			var ar serve.AssessResponse
			if err := json.Unmarshal(payload, &ar); err != nil {
				errs <- err
				return
			}
			*log = append(*log, ar)
			seen.Store(ar.Version)
		}
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go runClient("healthy", func(i int) []float64 { return splits.Test.At(i).Features },
		splits.Test.Len(), &healthy, &healthyV, &wg)
	go runClient("edge-7", func(i int) []float64 { return splits.Unknown.At(i).Features },
		splits.Unknown.Len(), &edge, &edgeV, &wg)

	// Drift is being injected; run until BOTH devices have been answered
	// by the retrained version — the swap happened AND traffic kept
	// flowing across it.
	deadline := time.Now().Add(30 * time.Second)
	for healthyV.Load() < 2 || edgeV.Load() < 2 {
		select {
		case err := <-errs:
			stop.Store(true)
			wg.Wait()
			shutdown()
			t.Fatal(err)
		default:
		}
		if time.Now().After(deadline) {
			stop.Store(true)
			wg.Wait()
			shutdown()
			t.Fatalf("no retrain within 30s: controller %+v, healthy %d, edge %d",
				ctrl.Stats(), len(healthy), len(edge))
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// The retrains counter lands just after the swap; give it a moment.
	waitStats := time.Now().Add(5 * time.Second)
	for ctrl.Stats().Retrains < 1 {
		if time.Now().After(waitStats) {
			t.Fatalf("epoch bumped but retrains counter is %d", ctrl.Stats().Retrains)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// /stats reports the closed loop: the swap is attributed to the
	// controller and the store holds exactly one verdict per served
	// request.
	served := len(healthy) + len(edge)
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	statsRaw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var stats map[string]any
	if err := json.Unmarshal(statsRaw, &stats); err != nil {
		t.Fatal(err)
	}
	if got := stats["retrains_triggered"].(float64); got < 1 {
		t.Fatalf("retrains_triggered = %v, want >= 1", got)
	}
	if got := stats["last_swap_cause"].(string); got != "drift-retrain" {
		t.Fatalf("last_swap_cause = %q, want drift-retrain", got)
	}
	if got := stats["verdicts_stored"].(float64); int(got) != served {
		t.Fatalf("verdicts_stored = %v, served %d — verdicts were lost or duplicated", got, served)
	}
	if out := os.Getenv("TRUSTHMD_RETRAIN_STATS_OUT"); out != "" {
		if err := os.WriteFile(out, statsRaw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote retrain stats artifact to %s", out)
	}

	// Range queries return the exact verdicts served, element-wise
	// identical to the synchronous responses, per device and in order.
	compare := func(device string, want []serve.AssessResponse) []verdictstore.Record {
		t.Helper()
		recs, err := store.Query(verdictstore.Filter{Device: device, Limit: served + 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != len(want) {
			t.Fatalf("%s: %d stored, %d served", device, len(recs), len(want))
		}
		for i, rec := range recs {
			if rec.Model != want[i].Model || rec.Version != want[i].Version ||
				rec.Prediction != want[i].Prediction || rec.Entropy != want[i].Entropy ||
				rec.Decision != want[i].Decision {
				t.Fatalf("%s verdict %d diverged:\nstore %+v\nhttp  %+v", device, i, rec, want[i])
			}
		}
		return recs
	}
	healthyRecs := compare("healthy", healthy)
	edgeRecs := compare("edge-7", edge)

	// The drifting device must have crossed the swap: early verdicts on
	// v1, late ones on v2.
	if first, last := edgeRecs[0].Version, edgeRecs[len(edgeRecs)-1].Version; first != 1 || last < 2 {
		t.Fatalf("edge-7 versions %d..%d, want 1..>=2", first, last)
	}

	// Restart: close the daemon (the store last), reopen the store, and the
	// same records come back (crash-safe segment recovery).
	shutdown()
	reopened, err := verdictstore.Open(verdictDir, verdictstore.Config{
		SegmentBytes: 32 << 10,
		MaxSegments:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Stats().Records; int(got) != served {
		t.Fatalf("reopened store holds %d records, want %d", got, served)
	}
	for _, probe := range []struct {
		device string
		want   []verdictstore.Record
	}{{"healthy", healthyRecs}, {"edge-7", edgeRecs}} {
		recs, err := reopened.Query(verdictstore.Filter{Device: probe.device, Limit: served + 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != len(probe.want) {
			t.Fatalf("reopened %s: %d records, want %d", probe.device, len(recs), len(probe.want))
		}
		for i, rec := range recs {
			w := probe.want[i]
			if rec.Seq != w.Seq || rec.Entropy != w.Entropy || rec.Decision != w.Decision ||
				rec.Version != w.Version || rec.Prediction != w.Prediction {
				t.Fatalf("reopened %s verdict %d diverged:\nafter  %+v\nbefore %+v", probe.device, i, rec, w)
			}
		}
	}
}
