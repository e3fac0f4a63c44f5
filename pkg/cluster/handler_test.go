package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
)

// spaces is an endless body of JSON whitespace: it never ends, so only the
// size bound can stop a read of it.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestDecodeBodyStatus: only a body over maxClusterBodyBytes is "too
// large"; a body that fails mid-read (truncated, or the peer hung up) and
// one that is not JSON are both bad requests.
func TestDecodeBodyStatus(t *testing.T) {
	for _, tc := range []struct {
		name string
		body io.Reader
		want int
	}{
		{"valid", strings.NewReader(`{"name":"m","version":1}`), http.StatusOK},
		{"over the limit", spaces{}, http.StatusRequestEntityTooLarge},
		{"read error", iotest.ErrReader(io.ErrUnexpectedEOF), http.StatusBadRequest},
		{"bad JSON", strings.NewReader(`{"name":`), http.StatusBadRequest},
	} {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/cluster/v1/commit", tc.body)
		var req commitRequest
		ok := decodeBody(w, r, &req)
		if ok != (tc.want == http.StatusOK) || w.Code != tc.want {
			t.Errorf("%s: decodeBody = %v, status %d; want status %d", tc.name, ok, w.Code, tc.want)
		}
	}
}

// FuzzClusterHandler posts one fuzzed body to a node-to-node POST endpoint
// of a fresh two-node simulated cluster, on the coordinator or on the
// follower. No body may panic a node, and every answer is one a peer acts
// on: 200, or a refusal (400, 404, 409, 413, 503).
func FuzzClusterHandler(f *testing.F) {
	paths := []string{"/cluster/v1/join", "/cluster/v1/heartbeat", "/cluster/v1/stage",
		"/cluster/v1/commit", "/cluster/v1/abort", "/cluster/v1/push"}
	_, blobs := simPayloads(f)
	for i, body := range []any{
		joinRequest{ID: "n9", Addr: simAddr("n9"), Models: []CatalogModel{{Name: "alt", Version: 1, Data: blobs[1]}}},
		heartbeatRequest{ID: "n2", Addr: simAddr("n2"), Epoch: 1},
		CatalogModel{Name: e2eModel, Version: 2, Data: blobs[1]},
		commitRequest{Name: e2eModel, Version: 1},
		commitRequest{Name: e2eModel, Version: 2},
		pushRequest{Shard: e2eModel, Levels: 8, Window: 4, Stride: 2, States: []int{0, 1, 2, 3, 4, 5}},
	} {
		raw, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), false, raw)
		f.Add(uint8(i), true, raw)
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, follower bool, body []byte) {
		s := newSim(t, 1, 2, 0)
		defer s.close()
		n := s.nodes[0]
		if follower {
			n = s.nodes[1]
		}
		path := paths[int(endpoint)%len(paths)]
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		r.Header.Set("Authorization", "Bearer "+simToken)
		w := httptest.NewRecorder()
		n.mux.ServeHTTP(w, r)
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict,
			http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("%s on %s answered %d: %s", path, n.id, w.Code, w.Body)
		}
	})
}
