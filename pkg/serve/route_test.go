package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"trusthmd/pkg/cluster/ring"
	"trusthmd/pkg/detector"
)

// routeHook is a ClusterHook that places every request on one shard and
// counts what the server asks of it. Like the real agent it resolves a
// request carrying ForwardedHeader locally whatever the table says.
type routeHook struct {
	shard string
	local bool

	resolves, forwards, proxies atomic.Int32
	// handed is the shard name the server passed to ForwardAssess or
	// PushStream; sent is the body ForwardAssess was handed.
	handed, sent atomic.Value
}

func (h *routeHook) ResolveAssess(r *http.Request, model, device string) (string, bool) {
	h.resolves.Add(1)
	return h.shard, h.local || r.Header.Get(ForwardedHeader) != ""
}

func (h *routeHook) ForwardAssess(w http.ResponseWriter, r *http.Request, shard, device string, body []byte) {
	h.forwards.Add(1)
	h.handed.Store(shard)
	h.sent.Store(string(body))
	writeError(w, http.StatusBadGateway, "forwarded")
}

func (h *routeHook) PushStream(shard, device string, cfg detector.StreamConfig, st *detector.SessionState, states []int) (StreamPushResult, error) {
	h.proxies.Add(1)
	h.handed.Store(shard)
	return StreamPushResult{}, errors.New("proxied")
}

func (h *routeHook) HandleModelLoad(http.ResponseWriter, *http.Request, LoadModelRequest) bool {
	return false
}
func (h *routeHook) StatsFields() map[string]any { return nil }
func (h *routeHook) Status() any                 { return nil }

// TestRouteStep drives the one routing step through all three assessment
// entry points under every cluster situation, asserting the model key the
// request was pinned to and that exactly one of serve-locally,
// ForwardAssess and PushStream ran.
func TestRouteStep(t *testing.T) {
	d, X := testDetector(t)
	const device = "host-7"
	// Local device routing picks ringPick; the hook deliberately places the
	// device on the other shard, so a pin that is dropped shows up as the
	// wrong model in the response.
	ringPick := ring.New([]string{"a", "b"}, 0).Lookup(device)
	hookPick := "a"
	if ringPick == "a" {
		hookPick = "b"
	}

	bodies := map[string][]byte{}
	bodies["/v1/assess"], _ = json.Marshal(AssessRequest{Device: device, Features: X[0]})
	bodies["/v1/assess/batch"], _ = json.Marshal(BatchRequest{Device: device, Batch: [][]float64{X[0], X[1]}})
	bodies["/v1/assess/stream"] = []byte(streamBody(StreamHeader{Device: device, Levels: 8, Window: 16}, make([]int, 16)))

	// servedModel pulls the serving shard's name out of a 200 answer.
	servedModel := func(t *testing.T, path string, body io.Reader) string {
		t.Helper()
		if path != "/v1/assess/stream" {
			var got struct {
				Model string `json:"model"`
			}
			if err := json.NewDecoder(body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			return got.Model
		}
		var summary StreamSummary
		sc := bufio.NewScanner(body)
		for sc.Scan() {
			if bytes.Contains(sc.Bytes(), []byte(`"done"`)) {
				if err := json.Unmarshal(sc.Bytes(), &summary); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return summary.Model
	}

	cases := []struct {
		name                        string
		clustered, local, forwarded bool
		wantModel                   string // "" when the request must leave this node
		// escaped spells the device key with an escape, which the routing
		// peek declines: the body is decoded before it is routed.
		escaped bool
	}{
		{name: "no hook", wantModel: ringPick},
		{name: "hook local", clustered: true, local: true, wantModel: hookPick},
		{name: "hook remote", clustered: true},
		{name: "forwarded header", clustered: true, forwarded: true, wantModel: hookPick},
		{name: "hook remote, escaped key", clustered: true, escaped: true},
		{name: "hook local, escaped key", clustered: true, local: true, wantModel: hookPick, escaped: true},
	}
	for _, tc := range cases {
		for path, body := range bodies {
			if tc.escaped {
				body = []byte(escapeKey(string(body), "device"))
			}
			t.Run(tc.name+path, func(t *testing.T) {
				s := mustServer(t, map[string]*detector.Detector{"a": d, "b": d}, Config{})
				defer s.Close()
				var hook *routeHook
				if tc.clustered {
					hook = &routeHook{shard: hookPick, local: tc.local}
					s.AttachCluster(hook)
				}
				ts := httptest.NewServer(s)
				defer ts.Close()

				req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				if tc.forwarded {
					req.Header.Set(ForwardedHeader, "n1")
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				gotModel := ""
				if resp.StatusCode == http.StatusOK {
					gotModel = servedModel(t, path, resp.Body)
				}

				var served int64
				for _, st := range s.Fleet().Stats() {
					served += st.Requests + st.BatchRequests + st.StreamSessions
				}
				var resolves, forwards, proxies int32
				if hook != nil {
					resolves, forwards, proxies = hook.resolves.Load(), hook.forwards.Load(), hook.proxies.Load()
					if resolves != 1 {
						t.Fatalf("ResolveAssess ran %d times, want 1", resolves)
					}
				}
				if tc.wantModel != "" {
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("status %d", resp.StatusCode)
					}
					if gotModel != tc.wantModel {
						t.Fatalf("served by %q, want the pinned %q", gotModel, tc.wantModel)
					}
					if served != 1 || forwards != 0 || proxies != 0 {
						t.Fatalf("local: served %d, forwards %d, proxies %d", served, forwards, proxies)
					}
					return
				}
				// A refused opening push answers 400, as a refused local open
				// does; either way the hook is handed route's shard.
				wantForwards, wantProxies, wantStatus := int32(1), int32(0), http.StatusBadGateway
				if path == "/v1/assess/stream" {
					wantForwards, wantProxies, wantStatus = 0, 1, http.StatusBadRequest
				}
				if resp.StatusCode != wantStatus {
					t.Fatalf("status %d, want %d", resp.StatusCode, wantStatus)
				}
				if served != 0 || forwards != wantForwards || proxies != wantProxies {
					t.Fatalf("remote: served %d, forwards %d, proxies %d", served, forwards, proxies)
				}
				if got := hook.handed.Load(); got != hookPick {
					t.Fatalf("hook was handed %v, want %q", got, hookPick)
				}
			})
		}
	}
}

// TestPeekForwardsUndecodedBody: a node that routes a body elsewhere reads
// only its keys, so a body malformed only in its numbers or rows is handed
// to ForwardAssess byte for byte instead of being answered 400; on the node
// that serves it the strict decoder refuses it.
func TestPeekForwardsUndecodedBody(t *testing.T) {
	d, _ := testDetector(t)
	bodies := map[string]string{
		"/v1/assess":       `{"device":"host-7","features":[1,1e999]}`,
		"/v1/assess/batch": `{"device":"host-7","batch":[[1,2,]]}`,
	}
	for path, body := range bodies {
		for _, local := range []bool{false, true} {
			s := mustServer(t, map[string]*detector.Detector{"a": d}, Config{})
			hook := &routeHook{shard: "a", local: local}
			s.AttachCluster(hook)
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			s.Close()
			if n := hook.resolves.Load(); n != 1 {
				t.Fatalf("%s local=%v: ResolveAssess ran %d times, want 1", path, local, n)
			}
			if local {
				if w.Code != http.StatusBadRequest || hook.forwards.Load() != 0 ||
					!strings.HasPrefix(w.Body.String(), `{"error":"bad request body: invalid JSON at offset`) {
					t.Fatalf("%s served here: status %d, forwards %d, body %s", path, w.Code, hook.forwards.Load(), w.Body)
				}
				continue
			}
			if w.Code != http.StatusBadGateway || hook.forwards.Load() != 1 {
				t.Fatalf("%s owned elsewhere: status %d, forwards %d, body %s", path, w.Code, hook.forwards.Load(), w.Body)
			}
			if got := hook.sent.Load(); got != body {
				t.Fatalf("%s: ForwardAssess was handed %q, want the body as sent", path, got)
			}
		}
	}
}
