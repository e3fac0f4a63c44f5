package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"trusthmd/pkg/verdictstore"
)

// The closed loop's HTTP read side: GET /v1/verdicts range-queries the
// attached verdict store, and answers 404 when the daemon runs without
// one.

// maxVerdictQueryLimit bounds one GET /v1/verdicts response; the default
// (no "limit" param) is deliberately smaller.
const (
	maxVerdictQueryLimit     = 10000
	defaultVerdictQueryLimit = 1000
)

// VerdictsResponse is the JSON body answering GET /v1/verdicts.
type VerdictsResponse struct {
	Count   int                   `json:"count"`
	Records []verdictstore.Record `json:"records"`
}

// handleVerdicts is GET /v1/verdicts?device=&model=&since_seq=&since=&until=&limit=:
// a range query over the attached verdict store. Times are RFC 3339.
func (s *Server) handleVerdicts(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	store := s.fleet.cfg.Verdicts
	if store == nil {
		writeError(w, http.StatusNotFound, "verdict store not enabled (start with -verdict-dir)")
		return
	}
	q := r.URL.Query()
	f := verdictstore.Filter{
		Device: q.Get("device"),
		Model:  q.Get("model"),
		Limit:  defaultVerdictQueryLimit,
	}
	if raw := q.Get("since_seq"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad since_seq %q: %v", raw, err))
			return
		}
		f.SinceSeq = v
	}
	if raw := q.Get("since"); raw != "" {
		t, err := time.Parse(time.RFC3339, raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad since %q: want RFC 3339", raw))
			return
		}
		f.Since = t
	}
	if raw := q.Get("until"); raw != "" {
		t, err := time.Parse(time.RFC3339, raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad until %q: want RFC 3339", raw))
			return
		}
		f.Until = t
	}
	if raw := q.Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad limit %q", raw))
			return
		}
		f.Limit = v
	}
	if f.Limit > maxVerdictQueryLimit {
		f.Limit = maxVerdictQueryLimit
	}
	recs, err := store.Query(f)
	if err != nil {
		if errors.Is(err, verdictstore.ErrClosed) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if recs == nil {
		recs = make([]verdictstore.Record, 0)
	}
	writeJSON(w, http.StatusOK, VerdictsResponse{Count: len(recs), Records: recs})
}
