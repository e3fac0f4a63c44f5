package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"trusthmd/internal/testgate"
	"trusthmd/pkg/detector"
)

// TestReplicaGroupShape: the fleet fans each name out to Config.Replicas
// instances — visible in the resolve path, /v1/models and the stats
// snapshot — and a same-size hot swap preserves every device's home slot.
func TestReplicaGroupShape(t *testing.T) {
	d, _ := testDetector(t)
	f, err := NewFleet(map[string]*detector.Detector{"m": d}, Config{Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	g, err := f.resolve("m", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.replicas) != 3 {
		t.Fatalf("group has %d replicas, want 3", len(g.replicas))
	}
	for i, r := range g.replicas {
		if r.idx != i || r.name != "m" || r.version != 1 || r.co == nil {
			t.Fatalf("replica %d malformed: %+v", i, r)
		}
		if g.replicas[i].co == g.replicas[(i+1)%3].co {
			t.Fatal("replicas share a coalescer")
		}
	}

	// Home affinity is deterministic per device and survives a swap: the
	// within-group ring is keyed on replica indices, so a fresh same-size
	// group maps every device to the same slot.
	homes := make(map[string]int)
	for i := 0; i < 32; i++ {
		dev := fmt.Sprintf("device-%d", i)
		homes[dev] = g.home(dev).idx
		if again := g.home(dev).idx; again != homes[dev] {
			t.Fatalf("device %s home flapped: %d vs %d", dev, homes[dev], again)
		}
	}
	if _, err := f.Swap("m", d, "swap"); err != nil {
		t.Fatal(err)
	}
	g2, err := f.resolve("m", "")
	if err != nil {
		t.Fatal(err)
	}
	if g2 == g || g2.version != 2 {
		t.Fatalf("swap did not install a fresh group (version %d)", g2.version)
	}
	for dev, idx := range homes {
		if got := g2.home(dev).idx; got != idx {
			t.Fatalf("device %s home moved across swap: %d -> %d", dev, idx, got)
		}
	}

	if _, models := f.ModelsWithEpoch(); models[0].Replicas != 3 {
		t.Fatalf("ModelInfo.Replicas = %d, want 3", models[0].Replicas)
	}
	if _, stats := f.StatsWithEpoch(); len(stats[0].Replicas) != 3 {
		t.Fatalf("ShardStats.Replicas has %d entries, want 3", len(stats[0].Replicas))
	}
}

// TestReplicaSpillUnderLoad is the routing acceptance test: load keyed to
// ONE device (whose home is therefore one replica) must spill onto sibling
// replicas while the home replica is busy, siblings must serve a real
// share of it, and every spilled response must be element-wise identical
// to direct assessment. The home flusher is busy the way it is under a
// burst — held inside a flush — and requests are admitted one at a time, so
// each pick sees the loads the previous one left and the split is exact.
func TestReplicaSpillUnderLoad(t *testing.T) {
	d, X := gatedDetector(t)
	f, err := NewFleet(map[string]*detector.Detector{"m": d}, Config{
		Replicas: 3,
		// Spill as soon as the home replica has anything in flight.
		SpillDepth: 1,
		MaxBatch:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := f.resolve("m", "")
	if err != nil {
		t.Fatal(err)
	}
	home := g.home("hot-device")
	inflight := func() (n int64) {
		for _, r := range g.replicas {
			n += r.load()
		}
		return n
	}

	const n = 31
	release := testgate.Hold(t)
	defer release()
	got := make([]AssessOutcome, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = f.Assess(context.Background(), AssessSpec{Device: "hot-device", Features: X[i]})
		}()
		waitFor(t, "the request to be admitted", func() bool { return inflight() == int64(i+1) })
		if i == 0 && home.load() != 1 {
			t.Fatalf("first request found every replica idle but did not go home (home load %d)", home.load())
		}
	}
	// Home took the first request; after that a request stays home only
	// when no sibling is lighter, which is every third one.
	for _, r := range g.replicas {
		want := int64(n / 3)
		if r == home {
			want = n - 2*(n/3)
		}
		if got := r.load(); got != want {
			t.Fatalf("replica %d holds %d requests behind the gate, want %d", r.idx, got, want)
		}
	}
	release()
	wg.Wait()

	sibling := int64(0)
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		want, err := d.Assess(X[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i].Result, want) {
			t.Fatalf("request %d (replica %d, spilled %v) diverged from direct assessment:\n got %+v\nwant %+v",
				i, got[i].Replica, got[i].Spilled, got[i].Result, want)
		}
		if got[i].Spilled != (got[i].Replica != home.idx) {
			t.Fatalf("request %d: spilled=%v but served by replica %d (home %d)", i, got[i].Spilled, got[i].Replica, home.idx)
		}
		if got[i].Spilled {
			sibling++
		}
	}
	if want := int64(2 * (n / 3)); sibling != want {
		t.Fatalf("%d of %d requests spilled, want %d", sibling, n, want)
	}
	_, stats := f.StatsWithEpoch()
	if stats[0].Spills != sibling {
		t.Fatalf("spills counter %d, but %d responses were spilled", stats[0].Spills, sibling)
	}
	total := int64(0)
	for _, r := range g.replicas {
		total += r.served.Load()
	}
	if total != n || home.served.Load() != n-sibling {
		t.Fatalf("served %d in all and %d at home, want %d and %d", total, home.served.Load(), n, n-sibling)
	}
}

// TestReplicaGroupSwapUnderLoadLossless: hot-swapping a 3-replica group
// under sustained concurrent load must lose zero requests, and every
// response — whichever version and replica answered — must carry the
// correct verdict.
func TestReplicaGroupSwapUnderLoadLossless(t *testing.T) {
	d, X := testDetector(t)
	f, err := NewFleet(map[string]*detector.Detector{"m": d}, Config{
		Replicas:   3,
		SpillDepth: 1,
		MaxBatch:   8,
	})
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

	const workers = 8
	const perWorker = 50
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			lastVersion := uint64(0)
			for i := 0; i < perWorker; i++ {
				j := (w*perWorker + i) % len(X)
				out, err := f.Assess(context.Background(), AssessSpec{Device: "hot-device", Features: X[j]})
				if err != nil {
					t.Errorf("worker %d request %d lost: %v", w, i, err)
					return
				}
				if out.Version < lastVersion {
					t.Errorf("version went backwards: %d after %d", out.Version, lastVersion)
					return
				}
				lastVersion = out.Version
				if out.Result.Prediction != want[j].Prediction || out.Result.Entropy != want[j].Entropy {
					t.Errorf("response diverged during swap (version %d, replica %d)", out.Version, out.Replica)
					return
				}
			}
		}(w)
	}
	swapsDone := make(chan uint64, 1)
	go func() {
		var v uint64
		for i := 0; i < 3; i++ {
			time.Sleep(2 * time.Millisecond)
			nv, err := f.Swap("m", d, "swap")
			if err != nil {
				t.Errorf("swap %d: %v", i, err)
				break
			}
			v = nv
		}
		swapsDone <- v
	}()
	close(start)
	wg.Wait()
	if v := <-swapsDone; v < 2 {
		t.Fatalf("swaps never ran (final version %d)", v)
	}
	_, stats := f.StatsWithEpoch()
	if got := stats[0].Requests; got != workers*perWorker {
		t.Fatalf("requests %d, want %d (lossless group swap)", got, workers*perWorker)
	}
	if stats[0].Errors != 0 || stats[0].Shed != 0 {
		t.Fatalf("swap under load errored/shed: %+v", stats[0])
	}
}

// TestAssessShedsWithRetryAfter: a replica at its in-flight cap sheds
// /v1/assess with 503 + Retry-After (satellite: both assessment endpoints
// shed the same way).
func TestAssessShedsWithRetryAfter(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 1})
	// Saturate the only replica's admission gauge from the inside — the
	// deterministic way to make "overloaded" hold for exactly one request.
	g, err := srv.fleet.resolve("dvfs-rf", "")
	if err != nil {
		t.Fatal(err)
	}
	rep := g.replicas[0]
	rep.batchInflight.Add(1)

	_, X := testDetector(t)
	resp, body := postJSON(t, ts.URL+"/v1/assess", AssessRequest{Features: X[0]})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	rep.batchInflight.Add(-1)
	resp, body = postJSON(t, ts.URL+"/v1/assess", AssessRequest{Features: X[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d: %s", resp.StatusCode, body)
	}
	if _, stats := srv.fleet.StatsWithEpoch(); stats[0].Shed != 1 {
		t.Fatalf("shed counter %d, want 1", stats[0].Shed)
	}
}

// TestBatchShedsWithRetryAfter: /v1/assess/batch sheds a full queue with
// 503 + Retry-After exactly like /v1/assess (satellite: today's divergence
// — batch never shed — is gone).
func TestBatchShedsWithRetryAfter(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 1})
	g, err := srv.fleet.resolve("dvfs-rf", "")
	if err != nil {
		t.Fatal(err)
	}
	rep := g.replicas[0]
	rep.batchInflight.Add(1)

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
	// admission unit, so an idle replica takes a batch of any size.
	rep.batchInflight.Add(-1)
	resp, body = postJSON(t, ts.URL+"/v1/assess/batch", BatchRequest{Batch: X[:4]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d: %s", resp.StatusCode, body)
	}
	if got := rep.batchInflight.Load(); got != 0 {
		t.Fatalf("batch reservation leaked: %d", got)
	}
	if _, stats := srv.fleet.StatsWithEpoch(); stats[0].Shed != 1 {
		t.Fatalf("shed counter %d, want 1", stats[0].Shed)
	}
}

// TestStatsReplicaFields: /stats exposes the fleet-wide shed_total and the
// per-replica queue_depth/inflight/served gauges, epoch-consistent with
// the rest of the snapshot (satellite).
func TestStatsReplicaFields(t *testing.T) {
	_, ts := newTestServer(t, Config{Replicas: 2})
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
		FleetEpoch uint64       `json:"fleet_epoch"`
		ShedTotal  *int64       `json:"shed_total"`
		Shards     []ShardStats `json:"shards"`
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
	if len(stats.Shards) != 1 || len(stats.Shards[0].Replicas) != 2 {
		t.Fatalf("expected 1 shard with 2 replica entries: %+v", stats.Shards)
	}
	var served int64
	for i, r := range stats.Shards[0].Replicas {
		if r.Replica != i {
			t.Fatalf("replica index %d at slot %d", r.Replica, i)
		}
		if r.QueueDepth != 0 || r.Inflight != 0 {
			t.Fatalf("idle replica %d shows load: %+v", i, r)
		}
		served += r.Served
	}
	if served != 4 {
		t.Fatalf("per-replica served sums to %d, want 4", served)
	}
	if stats.FleetEpoch == 0 {
		t.Fatal("fleet_epoch missing from /stats")
	}
}

// TestPinCoresServes builds a pinned fleet and drives coalesced + batch
// traffic through it: pinning is a locality discipline, so every verdict
// must come back exactly as from an unpinned fleet, with distinct one-based
// core assignments handed to the flushers (wrapping on small machines).
func TestPinCoresServes(t *testing.T) {
	d, X := testDetector(t)
	f, err := NewFleet(map[string]*detector.Detector{"m": d}, Config{Replicas: 3, PinCores: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	g, err := f.resolve("m", "")
	if err != nil {
		t.Fatal(err)
	}
	ncpu := runtime.NumCPU()
	for i, r := range g.replicas {
		want := 1 + i%ncpu
		if got := r.co.tuning.pinCPU; got != want {
			t.Fatalf("replica %d pinned to %d, want %d (NumCPU=%d)", i, got, want, ncpu)
		}
	}

	want, err := d.Assess(X[0])
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Assess(context.Background(), AssessSpec{Model: "m", Features: X[0], Source: "assess"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Prediction != want.Prediction || out.Result.Decision != want.Decision {
		t.Fatalf("pinned fleet answered %+v, direct assess %+v", out.Result, want)
	}

	// A swap keeps counting cores instead of restacking on the first ones.
	if _, err := f.Swap("m", d, "swap"); err != nil {
		t.Fatal(err)
	}
	g2, err := f.resolve("m", "")
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range g2.replicas {
		want := 1 + (3+i)%ncpu
		if got := r.co.tuning.pinCPU; got != want {
			t.Fatalf("post-swap replica %d pinned to %d, want %d", i, got, want)
		}
	}
}
