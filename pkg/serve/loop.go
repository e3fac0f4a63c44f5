package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"trusthmd/pkg/ingest"
	"trusthmd/pkg/verdictstore"
)

// The closed-loop HTTP surface:
//
//	GET  /v1/verdicts   range-query the attached verdict store
//	POST /v1/ingest     push telemetry events into the attached pump
//
// Both answer 404 when their backing piece is not attached — the
// endpoints exist only when the daemon runs with a verdict store /
// ingest pump.

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
		recs = []verdictstore.Record{}
	}
	writeJSON(w, http.StatusOK, VerdictsResponse{Count: len(recs), Records: recs})
}

// IngestRequest is the JSON body of POST /v1/ingest: one event (device +
// features, like /v1/assess) or a batch under "events".
type IngestRequest struct {
	Device   string         `json:"device,omitempty"`
	Model    string         `json:"model,omitempty"`
	Features []float64      `json:"features,omitempty"`
	Events   []ingest.Event `json:"events,omitempty"`
}

// IngestResponse answers a successful POST /v1/ingest.
type IngestResponse struct {
	// Queued is how many events were accepted into the pump. Assessment
	// is asynchronous: the verdicts land in the verdict store, not in
	// this response.
	Queued int `json:"queued"`
}

// handleIngest is POST /v1/ingest: enqueue telemetry into the attached
// pump without waiting for assessment (202). A full queue sheds with 503
// + Retry-After — the pump's backpressure reaching the HTTP edge.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	pump := s.pump.Load()
	if pump == nil {
		writeError(w, http.StatusNotFound, "ingest not enabled (start with -ingest-dir or attach a pump)")
		return
	}
	var req IngestRequest
	if !s.decodeJSONLimit(w, r, &req, s.fleet.cfg.MaxBodyBytes) {
		return
	}
	single := len(req.Features) > 0
	if single == (len(req.Events) > 0) {
		writeError(w, http.StatusBadRequest, `exactly one of "features" and "events" must be set`)
		return
	}
	events := req.Events
	if single {
		events = []ingest.Event{{Device: req.Device, Model: req.Model, Features: req.Features}}
	}
	for i, ev := range events {
		if len(ev.Features) == 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("events[%d]: features missing or empty", i))
			return
		}
	}
	queued := 0
	for _, ev := range events {
		if err := pump.Push(ev); err != nil {
			switch {
			case errors.Is(err, ingest.ErrBusy):
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusServiceUnavailable,
					fmt.Sprintf("ingest queue full after %d of %d events", queued, len(events)))
			case errors.Is(err, ingest.ErrStopped):
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusServiceUnavailable, err.Error())
			default:
				writeError(w, http.StatusInternalServerError, err.Error())
			}
			return
		}
		queued++
	}
	writeJSON(w, http.StatusAccepted, IngestResponse{Queued: queued})
}
