package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"trusthmd/internal/gen"
	"trusthmd/internal/testgate"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/serve"
)

func TestModelFlagsParsing(t *testing.T) {
	var m modelFlags
	if err := m.Set("dvfs=det.gob"); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("alt=other.gob"); err != nil {
		t.Fatal(err)
	}
	if m.String() != "dvfs=det.gob,alt=other.gob" {
		t.Fatalf("String: %q", m.String())
	}
	// Duplicate shard names fail at flag-parse time — silently keeping
	// the last spec would serve the wrong model. Whitespace around the
	// name must not smuggle a duplicate past the check.
	for _, bad := range []string{"", "noequals", "=path", "name=", "dvfs=dup.gob", " dvfs =dup.gob", "  ", " = "} {
		if err := m.Set(bad); err == nil {
			t.Fatalf("Set(%q): expected error", bad)
		}
	}
	if len(m) != 2 {
		t.Fatalf("rejected specs must not be appended: %v", m)
	}
}

func TestLoadModelsErrors(t *testing.T) {
	if _, err := allSpecs("", nil, false); err == nil {
		t.Fatal("expected no-models error")
	}
	specs, err := allSpecs("/does/not/exist.gob", nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadModels(specs); err == nil {
		t.Fatal("expected open error")
	}
	// -load claims the name "default"; a -model spec reusing it must be
	// rejected up front, not silently resolved by map order.
	if _, err := allSpecs("/x.gob", modelFlags{{name: "default", path: "/y.gob"}}, false); err == nil {
		t.Fatal("expected duplicate-default error")
	}
	// A cluster joiner may boot with no models at all.
	if specs, err := allSpecs("", nil, true); err != nil || len(specs) != 0 {
		t.Fatalf("empty specs with allowEmpty: %v %v", specs, err)
	}
}

func TestClusterFlags(t *testing.T) {
	cfg := flagDefaults()
	if cfg.clustered() {
		t.Fatal("no cluster flags must mean standalone")
	}
	cfg.cluster.Coordinator = true
	if !cfg.clustered() {
		t.Fatal("-coordinator must enable clustering")
	}
	if _, err := cfg.agentConfig(); err == nil {
		t.Fatal("clustering without -advertise must be rejected")
	}
	cfg.cluster.NodeID = "n1"
	cfg.cluster.Advertise = "http://10.0.0.5:8080/"
	cfg.cluster.Heartbeat = 250 * time.Millisecond
	cfg.serve.AdminToken = "secret"
	acfg, err := cfg.agentConfig()
	if err != nil {
		t.Fatal(err)
	}
	if acfg.NodeID != "n1" || acfg.Advertise != "http://10.0.0.5:8080" ||
		!acfg.Coordinator || acfg.Token != "secret" || acfg.Heartbeat != 250*time.Millisecond {
		t.Fatalf("agentConfig: %+v", acfg)
	}
	// -join enables clustering too, and -node-id defaults to the hostname.
	cfg = flagDefaults()
	cfg.cluster.Advertise, cfg.cluster.Join = "http://x", "http://y"
	if !cfg.clustered() {
		t.Fatal("-join must enable clustering")
	}
	if acfg, err = cfg.agentConfig(); err != nil {
		t.Fatal(err)
	}
	if host, _ := os.Hostname(); host != "" && acfg.NodeID != host {
		t.Fatalf("default node ID %q, want hostname %q", acfg.NodeID, host)
	}

	// -auto-retrain swaps the local fleet outside the cluster catalog, so a
	// clustered node refuses it at boot, naming both flags.
	for flagName, set := range map[string]func(*daemonConfig){
		"-coordinator": func(c *daemonConfig) { c.cluster.Coordinator = true },
		"-join":        func(c *daemonConfig) { c.cluster.Join = "http://y" },
	} {
		cfg = flagDefaults()
		cfg.cluster.Advertise = "http://x"
		cfg.autoRetrain = true
		set(&cfg)
		_, err := newDaemon(cfg)
		if err == nil || !strings.Contains(err.Error(), "-auto-retrain") || !strings.Contains(err.Error(), flagName) {
			t.Fatalf("-auto-retrain with %s: %v, want a refusal naming both flags", flagName, err)
		}
	}
}

// flagDefaults is the config of a daemon started with no flags at all.
func flagDefaults() daemonConfig {
	var cfg daemonConfig
	bindFlags(flag.NewFlagSet("trusthmdd", flag.ContinueOnError), &cfg)
	return cfg
}

// bootDaemon boots cfg the way run does — newDaemon, serve d.handler,
// start — with an httptest server standing in for the listener and the
// test's cleanup for the signal.
func bootDaemon(t *testing.T, cfg daemonConfig) (*daemon, *httptest.Server) {
	t.Helper()
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.handler)
	t.Cleanup(func() {
		ts.Close()
		if err := d.close(); err != nil {
			t.Errorf("daemon close: %v", err)
		}
	})
	if err := d.start(context.Background()); err != nil {
		t.Fatal(err)
	}
	return d, ts
}

// TestDaemonHandoff exercises the documented workflow: save a trained
// detector (the `trusthmd -save` side), load it through the daemon's
// loader with serving-time overrides, and answer a request.
func TestDaemonHandoff(t *testing.T) {
	s, err := gen.DVFSWithSizes(3, gen.Sizes{Train: 280, Test: 40, Unknown: 40})
	if err != nil {
		t.Fatal(err)
	}
	d, err := detector.New(s.Train, detector.WithModel("rf"), detector.WithEnsembleSize(7), detector.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "det.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := flagDefaults()
	cfg.loadPath = path
	cfg.models = modelFlags{{name: "named", path: path}}
	cfg.threshold = 0.25
	cfg.serve.DefaultModel = "default"
	daemon, ts := bootDaemon(t, cfg)
	models := daemon.fleet.Models()
	if len(models) != 2 || models[0].Name != "default" || models[1].Name != "named" {
		t.Fatalf("models: %+v", models)
	}
	if got := models[0].Threshold; got != 0.25 {
		t.Fatalf("threshold override lost: %v", got)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

// saveDetector trains a tiny detector and gob-saves it, returning both.
func saveDetector(t *testing.T, path string, opts ...detector.Option) *detector.Detector {
	t.Helper()
	s, err := gen.DVFSWithSizes(3, gen.Sizes{Train: 280, Test: 40, Unknown: 40})
	if err != nil {
		t.Fatal(err)
	}
	base := []detector.Option{detector.WithModel("rf"), detector.WithEnsembleSize(7), detector.WithSeed(1)}
	d, err := detector.New(s.Train, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestStreamE2EHotSwap is the stream-smoke e2e CI runs under -race: train
// a tiny model, boot the daemon (newDaemon behind httptest, admin token
// set), stream raw DVFS states as NDJSON, hot-swap the shard
// through POST /v1/models mid-service, and assert that post-swap streamed
// assessments are element-wise identical to driving the swapped-in
// detector's Online loop directly.
func TestStreamE2EHotSwap(t *testing.T) {
	dir := t.TempDir()
	pathV1 := filepath.Join(dir, "v1.gob")
	pathV2 := filepath.Join(dir, "v2.gob")
	saveDetector(t, pathV1)
	// The replacement differs observably: threshold 0 rejects anything
	// with nonzero vote entropy.
	dV2 := saveDetector(t, pathV2, detector.WithThreshold(0))

	const token = "swap-secret"
	cfg := flagDefaults()
	cfg.loadPath = pathV1
	cfg.serve.DefaultModel = "default"
	cfg.serve.AdminToken = token
	_, ts := bootDaemon(t, cfg)

	const levels, window, stride = 8, 16, 4
	states := make([]int, 240)
	for i := range states {
		states[i] = (i*i + i/3) % levels
	}
	stream := func() (results []serve.StreamResult, summary serve.StreamSummary) {
		t.Helper()
		var b bytes.Buffer
		hdr, _ := json.Marshal(serve.StreamHeader{Levels: levels, Window: window, Stride: stride})
		b.Write(hdr)
		b.WriteByte('\n')
		for _, s := range states {
			fmt.Fprintf(&b, "{\"state\":%d}\n", s)
		}
		resp, err := http.Post(ts.URL+"/v1/assess/stream", "application/x-ndjson", &b)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("stream status %d: %s", resp.StatusCode, body)
		}
		sc := bufio.NewScanner(resp.Body)
		done := false
		for sc.Scan() {
			var probe map[string]json.RawMessage
			if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
				t.Fatalf("bad stream line: %s", sc.Bytes())
			}
			switch {
			case probe["error"] != nil:
				t.Fatalf("stream error line: %s", sc.Bytes())
			case probe["done"] != nil:
				if err := json.Unmarshal(sc.Bytes(), &summary); err != nil {
					t.Fatal(err)
				}
				done = true
			default:
				var r serve.StreamResult
				if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
					t.Fatal(err)
				}
				results = append(results, r)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if !done {
			t.Fatal("stream ended without summary")
		}
		return results, summary
	}

	pre, preSummary := stream()
	if len(pre) == 0 || preSummary.Version != 1 {
		t.Fatalf("pre-swap stream: %d results, summary %+v", len(pre), preSummary)
	}

	// Hot-swap through the admin endpoint, token-guarded.
	swapBody, _ := json.Marshal(serve.LoadModelRequest{Name: "default", Path: pathV2})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/models", bytes.NewReader(swapBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("swap status %d: %s", resp.StatusCode, body)
	}
	var swapped serve.LoadModelResponse
	if err := json.Unmarshal(body, &swapped); err != nil {
		t.Fatal(err)
	}
	if !swapped.Replaced || swapped.Version != 2 {
		t.Fatalf("swap response: %+v", swapped)
	}

	// Post-swap: the same stream now runs on v2 and matches the v2
	// detector's Online.Push decisions element-wise.
	online, err := detector.NewOnline(dV2, detector.StreamConfig{Levels: levels, Window: window, Stride: stride})
	if err != nil {
		t.Fatal(err)
	}
	var want []detector.Result
	for _, s := range states {
		r, ok, err := online.Push(s)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			want = append(want, r)
		}
	}
	post, postSummary := stream()
	if postSummary.Version != 2 {
		t.Fatalf("post-swap summary version %d, want 2", postSummary.Version)
	}
	if len(post) != len(want) {
		t.Fatalf("post-swap stream emitted %d decisions, direct Online.Push %d", len(post), len(want))
	}
	rejected := 0
	for i := range post {
		if post[i].Version != 2 {
			t.Fatalf("decision %d: version %d, want 2", i, post[i].Version)
		}
		if post[i].Prediction != want[i].Prediction || post[i].Entropy != want[i].Entropy ||
			post[i].Decision != want[i].Decision.String() {
			t.Fatalf("post-swap decision %d diverged:\n got %+v\nwant %+v", i, post[i], want[i])
		}
		if post[i].Decision == "reject" {
			rejected++
		}
	}
	// Sanity: the swap is observable — threshold 0 rejects every window
	// with nonzero entropy, which the v1 threshold accepted.
	if rejected == 0 {
		preRejects := 0
		for _, r := range pre {
			if r.Decision == "reject" {
				preRejects++
			}
		}
		if preRejects != 0 {
			t.Fatalf("swap to threshold-0 changed nothing: pre %d rejects, post %d", preRejects, rejected)
		}
	}
}

// TestGBMShardServes proves the exported classifier contract end to end:
// the gradient-boosted-stumps family — implemented in pkg/model/gbm against
// only exported packages and enabled here by blank import — trains through
// the registry, round-trips through Save/Load, and answers daemon requests
// like any built-in.
func TestGBMShardServes(t *testing.T) {
	s, err := gen.DVFSWithSizes(3, gen.Sizes{Train: 280, Test: 40, Unknown: 40})
	if err != nil {
		t.Fatal(err)
	}
	d, err := detector.New(s.Train, detector.WithModel("gbm"), detector.WithEnsembleSize(7), detector.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gbm.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := flagDefaults()
	cfg.loadPath = path
	_, ts := bootDaemon(t, cfg)

	correct := 0
	for i := 0; i < s.Test.Len(); i++ {
		smp := s.Test.At(i)
		body, err := json.Marshal(serve.AssessRequest{Features: smp.Features})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/assess", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got serve.AssessResponse
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("assess: %d", resp.StatusCode)
		}
		want, err := d.Assess(smp.Features)
		if err != nil {
			t.Fatal(err)
		}
		if got.Prediction != want.Prediction || got.Decision != want.Decision.String() {
			t.Fatalf("sample %d: served %+v, direct %+v", i, got, want)
		}
		if got.Prediction == smp.Label {
			correct++
		}
	}
	if acc := float64(correct) / float64(s.Test.Len()); acc < 0.9 {
		t.Fatalf("served gbm accuracy %v", acc)
	}
}

// TestSwapUnderLoadE2E is the swap-under-load e2e CI runs under -race:
// boot the daemon stack, hold a burst keyed to ONE device inside its
// assessments, hot-swap the shard through POST /v1/models with the burst
// still in flight, hold a second burst on the new version, and assert
// that (a) zero requests are lost and (b) every response — pre- and
// post-swap — is element-wise identical to direct assessment and carries
// the version it was admitted on.
//
// The model is internal/testgate's family, so "in flight" is an event,
// not a race against the clock: with the gate held no assessment
// completes, requests are admitted one at a time, and the swap is known
// to overlap the burst because version 2 is serving while version 1's
// requests are still held.
func TestSwapUnderLoadE2E(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "det.gob")
	d := saveDetector(t, path, detector.WithModel(testgate.Model))

	s, err := gen.DVFSWithSizes(3, gen.Sizes{Train: 280, Test: 40, Unknown: 40})
	if err != nil {
		t.Fatal(err)
	}
	X := make([][]float64, s.Test.Len())
	want := make([]detector.Result, s.Test.Len())
	for i := range X {
		X[i] = s.Test.At(i).Features
		r, err := d.Assess(X[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	const token = "swap-secret"
	cfg := flagDefaults()
	cfg.loadPath = path
	cfg.serve.DefaultModel = "default"
	cfg.serve.AdminToken = token
	_, ts := bootDaemon(t, cfg)

	type fleetStats struct {
		ShedTotal *int64             `json:"shed_total"`
		Shards    []serve.ShardStats `json:"shards"`
	}
	getStats := func() (st fleetStats) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if len(st.Shards) != 1 {
			t.Fatalf("/stats shape: %+v", st.Shards)
		}
		return st
	}
	// await polls /stats until the serving version holds n requests in
	// flight.
	await := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			got := getStats().Shards[0].Inflight
			if got == n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d requests in flight, want %d", got, n)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}

	const perPhase = 16
	got := make([]serve.AssessResponse, 2*perPhase)
	errs := make([]error, 2*perPhase)
	var wg sync.WaitGroup
	// burst admits perPhase requests one at a time behind the held gate.
	burst := func(base int) {
		t.Helper()
		for i := base; i < base+perPhase; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body, _ := json.Marshal(serve.AssessRequest{Device: "hot-device", Features: X[i%len(X)]})
				resp, err := ts.Client().Post(ts.URL+"/v1/assess", "application/json", bytes.NewReader(body))
				if err != nil {
					errs[i] = err
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs[i] = fmt.Errorf("status %d", resp.StatusCode)
					return
				}
				errs[i] = json.NewDecoder(resp.Body).Decode(&got[i])
			}()
			await(int64(i - base + 1))
		}
	}

	release := testgate.Hold(t)
	defer release()
	burst(0)

	// Hot-swap the shard through the admin endpoint with the first burst
	// still held (same gob — the invariant under test is losslessness and
	// verdict identity, not model change). The swap installs version 2;
	// version 1's burst finishes on version 1's detector.
	swapped := make(chan error, 1)
	go func() {
		body, _ := json.Marshal(serve.LoadModelRequest{Name: "default", Path: path})
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/models", bytes.NewReader(body))
		if err != nil {
			swapped <- err
			return
		}
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			swapped <- err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("swap: status %d", resp.StatusCode)
		}
		swapped <- err
	}()
	await(0) // version 2 is serving; version 1 still holds its burst
	burst(perPhase)

	release()
	wg.Wait()
	if err := <-swapped; err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("request %d lost across the swap: %v", i, errs[i])
		}
		w := want[i%len(X)]
		if got[i].Prediction != w.Prediction || got[i].Entropy != w.Entropy || got[i].Decision != w.Decision.String() {
			t.Fatalf("request %d diverged from direct assessment:\n got %+v\nwant %+v", i, got[i], w)
		}
		if wantVersion := uint64(1 + i/perPhase); got[i].Version != wantVersion {
			t.Fatalf("request %d answered by version %d, want %d", i, got[i].Version, wantVersion)
		}
	}

	stats := getStats()
	if stats.ShedTotal == nil {
		t.Fatal("/stats missing shed_total")
	}
	st := stats.Shards[0]
	if st.Requests != 2*perPhase || st.Shed != 0 || st.Errors != 0 {
		t.Fatalf("requests %d, shed %d, errors %d; want %d, 0 and 0", st.Requests, st.Shed, st.Errors, 2*perPhase)
	}
}
