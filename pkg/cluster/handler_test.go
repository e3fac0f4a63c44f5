package cluster

import (
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
