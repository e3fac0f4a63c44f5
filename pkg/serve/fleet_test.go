package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"trusthmd/pkg/cluster/ring"
	"trusthmd/pkg/detector"
)

func TestFleetLifecycle(t *testing.T) {
	d, _ := testDetector(t)
	f, err := NewFleet(nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Len() != 0 {
		t.Fatalf("empty fleet has %d shards", f.Len())
	}
	if _, err := f.resolve("", ""); err == nil {
		t.Fatal("empty fleet should refuse to resolve")
	}

	v, err := f.Load("m", d)
	if err != nil || v != 1 {
		t.Fatalf("Load: v=%d err=%v", v, err)
	}
	if _, err := f.Load("m", d); err == nil {
		t.Fatal("duplicate Load should fail")
	}
	if _, err := f.Swap("nope", d, "swap"); err == nil {
		t.Fatal("Swap of unknown shard should fail")
	}
	if _, err := f.Load("", d); err == nil {
		t.Fatal("empty name should fail")
	}
	// A "/" would make the shard unaddressable on /v1/models/{name}.
	if _, err := f.Load("eu/west", d); err == nil {
		t.Fatal("name containing '/' should fail")
	}
	if _, err := f.Load("x", nil); err == nil {
		t.Fatal("nil detector should fail")
	}

	// The single shard serves model-less requests.
	sh, err := f.resolve("", "")
	if err != nil || sh.name != "m" || sh.version != 1 {
		t.Fatalf("resolve: %+v err=%v", sh, err)
	}

	v, err = f.Swap("m", d, "swap")
	if err != nil || v != 2 {
		t.Fatalf("Swap: v=%d err=%v", v, err)
	}
	v, replaced, err := f.LoadOrSwap("m", d, "swap")
	if err != nil || !replaced || v != 3 {
		t.Fatalf("LoadOrSwap existing: v=%d replaced=%v err=%v", v, replaced, err)
	}
	v, replaced, err = f.LoadOrSwap("n", d, "swap")
	if err != nil || replaced || v != 1 {
		t.Fatalf("LoadOrSwap new: v=%d replaced=%v err=%v", v, replaced, err)
	}

	// Two shards, no default: model-less, device-less requests are refused;
	// named and device-keyed ones are served.
	if _, err := f.resolve("", ""); err == nil {
		t.Fatal("ambiguous default should be refused")
	}
	if sh, err := f.resolve("n", ""); err != nil || sh.name != "n" {
		t.Fatalf("resolve named: %v", err)
	}
	if sh, err := f.resolve("", "device-42"); err != nil || sh == nil {
		t.Fatalf("resolve by device: %v", err)
	}

	if err := f.Unload("n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Unload("n"); err == nil {
		t.Fatal("double Unload should fail")
	}
	// Version sequences survive unload: reloading "m" after an unload
	// continues counting instead of restarting at 1.
	if err := f.Unload("m"); err != nil {
		t.Fatal(err)
	}
	if v, err = f.Load("m", d); err != nil || v != 4 {
		t.Fatalf("reload after unload: v=%d err=%v", v, err)
	}

	epoch := f.Epoch()
	if _, err := f.Swap("m", d, "swap"); err != nil {
		t.Fatal(err)
	}
	if f.Epoch() != epoch+1 {
		t.Fatalf("epoch %d -> %d, want +1 per mutation", epoch, f.Epoch())
	}

	f.Close()
	f.Close() // idempotent
	if _, err := f.Load("late", d); err == nil {
		t.Fatal("Load after Close should fail")
	}
	if _, err := f.resolve("m", ""); err == nil {
		t.Fatal("resolve after Close should fail")
	}
}

// TestFleetRetiredNameBound: unloaded names keep version/stats continuity
// only up to a bound — rolling date-stamped names (or an attacker driving
// an open admin endpoint) must not grow the registry maps forever.
func TestFleetRetiredNameBound(t *testing.T) {
	d, _ := testDetector(t)
	f, err := NewFleet(nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < maxRetiredNames+200; i++ {
		name := fmt.Sprintf("rolling-%d", i)
		if _, err := f.Load(name, d); err != nil {
			t.Fatal(err)
		}
		if err := f.Unload(name); err != nil {
			t.Fatal(err)
		}
	}
	f.mu.RLock()
	versions, stats := len(f.versions), len(f.statsByName)
	f.mu.RUnlock()
	if versions > maxRetiredNames || stats > maxRetiredNames {
		t.Fatalf("retired bookkeeping unbounded: %d versions, %d stats", versions, stats)
	}
	if versions == 0 {
		t.Fatal("eviction removed everything — continuity should survive below the bound")
	}
}

// TestFleetStatsSurviveSwap pins that a shard's counters are per name,
// not per version: a swap and an unload/reload cycle both keep them.
func TestFleetStatsSurviveSwap(t *testing.T) {
	d, X := testDetector(t)
	f, err := NewFleet(map[string]*detector.Detector{"m": d}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := NewServer(f)
	ts := httptest.NewServer(s)
	defer ts.Close()

	for i := 0; i < 4; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/assess", AssessRequest{Features: X[0]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	st := f.Stats()[0]
	if st.Requests != 4 || st.Batches != 4 {
		t.Fatalf("pre-swap stats: %+v", st)
	}

	if _, err := f.Swap("m", d, "swap"); err != nil {
		t.Fatal(err)
	}
	st = f.Stats()[0]
	if st.Version != 2 {
		t.Fatalf("version %d, want 2", st.Version)
	}
	if st.Requests != 4 {
		t.Fatalf("request counter reset on swap: %+v", st)
	}

	resp, body := postJSON(t, ts.URL+"/v1/assess", AssessRequest{Features: X[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got AssessResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Version != 2 {
		t.Fatalf("post-swap response version %d, want 2", got.Version)
	}
	if st := f.Stats()[0]; st.Requests != 5 {
		t.Fatalf("post-swap request not counted on the shard's name: %+v", st)
	}

	// Counters also survive an unload/reload cycle, like the version
	// sequence — stats are cumulative per name, not per incarnation.
	before := f.Stats()[0].Requests
	if err := f.Unload("m"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Load("m", d); err != nil {
		t.Fatal(err)
	}
	reloaded := f.Stats()[0]
	if reloaded.Version != 3 {
		t.Fatalf("reload version %d, want 3", reloaded.Version)
	}
	if reloaded.Requests != before {
		t.Fatalf("unload/reload reset counters: %d -> %d", before, reloaded.Requests)
	}
}

// TestSwapUnderLoadIsLossless is the hot-lifecycle acceptance e2e: a Swap
// in the middle of sustained concurrent load must lose zero in-flight
// requests (every response 200, element-wise valid), and once the swap
// returns, subsequent responses must carry the new shard version and the
// new detector's decisions.
func TestSwapUnderLoadIsLossless(t *testing.T) {
	d, X := testDetector(t)
	strict, err := d.WithOptions(detector.WithThreshold(0))
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(map[string]*detector.Detector{"m": d}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(f)
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()

	const workers = 8
	const perWorker = 60
	var (
		wg       sync.WaitGroup
		failures atomic.Int64
		sawV1    atomic.Int64
		sawV2    atomic.Int64
		started  = make(chan struct{})
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-started
			lastVersion := uint64(0)
			for i := 0; i < perWorker; i++ {
				x := X[(w*perWorker+i)%len(X)]
				raw, _ := json.Marshal(AssessRequest{Features: x})
				resp, err := http.Post(ts.URL+"/v1/assess", "application/json", bytes.NewReader(raw))
				if err != nil {
					failures.Add(1)
					t.Errorf("worker %d: %v", w, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					t.Errorf("worker %d request %d: status %d: %s", w, i, resp.StatusCode, body)
					return
				}
				var got AssessResponse
				if err := json.Unmarshal(body, &got); err != nil {
					failures.Add(1)
					t.Errorf("worker %d: %v", w, err)
					return
				}
				switch got.Version {
				case 1:
					sawV1.Add(1)
				case 2:
					sawV2.Add(1)
				default:
					failures.Add(1)
					t.Errorf("worker %d: impossible version %d", w, got.Version)
					return
				}
				if got.Version < lastVersion {
					failures.Add(1)
					t.Errorf("worker %d: version went backwards %d -> %d", w, lastVersion, got.Version)
					return
				}
				lastVersion = got.Version
			}
		}(w)
	}

	close(started)
	// Let load build, then hot-swap mid-flight.
	waitFor(t, "the first responses", func() bool { return sawV1.Load() >= workers })
	if _, err := f.Swap("m", strict, "swap"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests lost across the swap", n)
	}
	if sawV2.Load() == 0 {
		t.Fatal("no response carried the new shard version (swap happened after all load?)")
	}
	t.Logf("swap under load: %d v1 responses, %d v2 responses, 0 failures", sawV1.Load(), sawV2.Load())

	// After the swap has returned, every response must be the new version
	// with the new detector's decision. Threshold 0 rejects anything with
	// entropy > 0, so the rollout is observable in the verdict itself.
	var x []float64
	var want detector.Result
	for _, cand := range X {
		r, err := strict.Assess(cand)
		if err != nil {
			t.Fatal(err)
		}
		if r.Entropy > 0 {
			x, want = cand, r
			break
		}
	}
	if x == nil {
		t.Skip("no uncertain sample in test split")
	}
	resp, body := postJSON(t, ts.URL+"/v1/assess", AssessRequest{Features: x})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-swap status %d: %s", resp.StatusCode, body)
	}
	var got AssessResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Version != 2 {
		t.Fatalf("post-swap version %d, want 2", got.Version)
	}
	if got.Decision != want.Decision.String() || got.Entropy != want.Entropy {
		t.Fatalf("post-swap response %+v does not match the swapped-in detector %+v", got, want)
	}
	if got.Decision != "reject" {
		t.Fatalf("threshold-0 shard should reject the uncertain sample, got %q", got.Decision)
	}
}

func TestDeviceRouting(t *testing.T) {
	d, X := testDetector(t)
	strict, err := d.WithOptions(detector.WithThreshold(0))
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(map[string]*detector.Detector{"normal": d, "strict": strict}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(f)
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()

	assess := func(req AssessRequest) AssessResponse {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/assess", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var got AssessResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		return got
	}

	// A device key routes deterministically: repeats stick to one shard,
	// and the shard matches the ring's prediction.
	devRing := ring.New([]string{"normal", "strict"}, 0)
	for i := 0; i < 8; i++ {
		device := fmt.Sprintf("host-%d", i)
		want := devRing.Lookup(device)
		first := assess(AssessRequest{Device: device, Features: X[i%len(X)]})
		if first.Model != want {
			t.Fatalf("device %q routed to %q, ring says %q", device, first.Model, want)
		}
		again := assess(AssessRequest{Device: device, Features: X[i%len(X)]})
		if again.Model != first.Model {
			t.Fatalf("device %q flapped shards: %q then %q", device, first.Model, again.Model)
		}
	}

	// Both shards are reachable across a spread of devices.
	seen := map[string]bool{}
	for i := 0; i < 64 && len(seen) < 2; i++ {
		seen[assess(AssessRequest{Device: fmt.Sprintf("spread-%d", i), Features: X[0]}).Model] = true
	}
	if len(seen) != 2 {
		t.Fatalf("64 devices all routed to one shard: %v", seen)
	}

	// An explicit model name wins over the device key.
	got := assess(AssessRequest{Model: "strict", Device: "device-pinned-elsewhere", Features: X[0]})
	if got.Model != "strict" {
		t.Fatalf("explicit model lost to device routing: %+v", got)
	}

	// The batch endpoint routes by device too.
	resp, body := postJSON(t, ts.URL+"/v1/assess/batch", BatchRequest{Device: "host-0", Batch: [][]float64{X[0]}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if batch.Model != devRing.Lookup("host-0") {
		t.Fatalf("batch device routing diverged: %+v", batch)
	}
}

func TestAdminEndpoints(t *testing.T) {
	d, _ := testDetector(t)
	path := filepath.Join(t.TempDir(), "det.gob")
	fd, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save(fd); err != nil {
		t.Fatal(err)
	}
	if err := fd.Close(); err != nil {
		t.Fatal(err)
	}

	var prepared atomic.Int64
	f, err := NewFleet(map[string]*detector.Detector{"boot": d}, Config{
		AdminToken: "sesame",
		// Far below the inline gob upload's size: admin loads must use
		// their own (default 64 MiB) cap, not the assess-path cap.
		MaxBodyBytes: 1024,
		PrepareDetector: func(det *detector.Detector) (*detector.Detector, error) {
			prepared.Add(1)
			return det.WithOptions(detector.WithThreshold(0.33))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The hook runs on every install, the boot shard included.
	if m := f.Models(); len(m) != 1 || m[0].Threshold != 0.33 {
		t.Fatalf("boot shard skipped PrepareDetector: %+v", m)
	}
	s := NewServer(f)
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()

	do := func(method, url string, body any, token string) (*http.Response, []byte) {
		t.Helper()
		var rd io.Reader
		if body != nil {
			raw, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(raw)
		}
		req, err := http.NewRequest(method, ts.URL+url, rd)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
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

	// Mutations without (or with a wrong) token are refused; the error
	// keeps the JSON envelope.
	for _, token := range []string{"", "wrong"} {
		resp, body := do(http.MethodPost, "/v1/models", LoadModelRequest{Name: "x", Path: path}, token)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("token %q: status %d: %s", token, resp.StatusCode, body)
		}
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("non-JSON 401 body: %s", body)
		}
	}
	if resp, _ := do(http.MethodDelete, "/v1/models/boot", nil, ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated DELETE: status %d", resp.StatusCode)
	}

	// Reads stay open without a token.
	if resp, _ := do(http.MethodGet, "/v1/models", nil, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/models without token: %d", resp.StatusCode)
	}

	// Load a new shard from a gob path; the PrepareDetector hook applies.
	resp, body := do(http.MethodPost, "/v1/models", LoadModelRequest{Name: "fromdisk", Path: path}, "sesame")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load: status %d: %s", resp.StatusCode, body)
	}
	var loaded LoadModelResponse
	if err := json.Unmarshal(body, &loaded); err != nil {
		t.Fatal(err)
	}
	if loaded.Name != "fromdisk" || loaded.Version != 1 || loaded.Replaced {
		t.Fatalf("load response: %+v", loaded)
	}
	if loaded.Info.Threshold != 0.33 {
		t.Fatalf("PrepareDetector hook skipped: %+v", loaded.Info)
	}
	if prepared.Load() == 0 {
		t.Fatal("hook never ran")
	}

	// POST again under the same name: a hot swap, version 2.
	resp, body = do(http.MethodPost, "/v1/models", LoadModelRequest{Name: "fromdisk", Path: path}, "sesame")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("swap: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &loaded); err != nil {
		t.Fatal(err)
	}
	if loaded.Version != 2 || !loaded.Replaced {
		t.Fatalf("swap response: %+v", loaded)
	}

	// Inline body: ship the gob itself, base64 inside JSON. The upload is
	// far larger than the 1 KiB assess-path MaxBodyBytes above — it must
	// ride the separate admin cap.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2048 {
		t.Fatalf("test gob too small (%d bytes) to prove the admin cap", len(raw))
	}
	resp, body = do(http.MethodPost, "/v1/models", LoadModelRequest{Name: "inline", Data: raw}, "sesame")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline load: status %d: %s", resp.StatusCode, body)
	}

	// The listing shows all three shards with their versions.
	resp, body = do(http.MethodGet, "/v1/models", nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	var listing ModelsResponse
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Models) != 3 {
		t.Fatalf("listing: %+v", listing)
	}
	versions := map[string]uint64{}
	for _, m := range listing.Models {
		versions[m.Name] = m.Version
	}
	if versions["boot"] != 1 || versions["fromdisk"] != 2 || versions["inline"] != 1 {
		t.Fatalf("versions: %v", versions)
	}

	// GET /v1/models/{name} describes one shard; unknown names 404.
	resp, body = do(http.MethodGet, "/v1/models/fromdisk", nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get one: status %d: %s", resp.StatusCode, body)
	}
	var one ModelInfo
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatal(err)
	}
	if one.Name != "fromdisk" || one.Version != 2 {
		t.Fatalf("get one: %+v", one)
	}
	if resp, _ := do(http.MethodGet, "/v1/models/ghost", nil, ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get unknown: status %d", resp.StatusCode)
	}

	// Bad load requests: missing name, neither source, both sources,
	// unreadable path, garbage inline data.
	for name, req := range map[string]LoadModelRequest{
		"missing name": {Path: path},
		"slash name":   {Name: "eu/west", Path: path},
		"no source":    {Name: "x"},
		"two sources":  {Name: "x", Path: path, Data: raw},
		"bad path":     {Name: "x", Path: filepath.Join(t.TempDir(), "missing.gob")},
		"bad data":     {Name: "x", Data: []byte("not a gob")},
	} {
		resp, body := do(http.MethodPost, "/v1/models", req, "sesame")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, body)
		}
	}

	// Unload, then 404 on a repeat.
	resp, body = do(http.MethodDelete, "/v1/models/inline", nil, "sesame")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unload: status %d: %s", resp.StatusCode, body)
	}
	var unloaded UnloadModelResponse
	if err := json.Unmarshal(body, &unloaded); err != nil || !unloaded.Unloaded {
		t.Fatalf("unload response: %s", body)
	}
	if resp, _ := do(http.MethodDelete, "/v1/models/inline", nil, "sesame"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double unload: status %d", resp.StatusCode)
	}

	// Method discipline on the new surfaces: the Allow header lists every
	// accepted method and the body keeps the JSON envelope.
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	putResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	putBody, _ := io.ReadAll(putResp.Body)
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /v1/models: status %d", putResp.StatusCode)
	}
	if allow := putResp.Header.Get("Allow"); allow != "GET, POST" {
		t.Fatalf("PUT /v1/models Allow header %q, want \"GET, POST\"", allow)
	}
	var e ErrorResponse
	if err := json.Unmarshal(putBody, &e); err != nil || e.Error == "" {
		t.Fatalf("non-JSON 405 body: %s", putBody)
	}
}

// TestDetectorInfoSurface guards the Info surface the daemon's /v1/models
// endpoint depends on.
func TestDetectorInfoSurface(t *testing.T) {
	d, X := testDetector(t)
	info := d.Info()
	if info.Model != "rf" || info.Members != 11 || info.InputDim != len(X[0]) {
		t.Fatalf("info: %+v", info)
	}
	if info.Diversity != "bootstrap" {
		t.Fatalf("diversity: %q", info.Diversity)
	}
}
