// Package serve is the HTTP serving layer of the trusted HMD: a mutable,
// versioned fleet of named detector shards (Fleet) exposed through a thin
// HTTP transport (Server) with consistent-hash device routing, NDJSON
// streaming and a hot model-lifecycle admin surface.
//
// Endpoints:
//
//	POST   /v1/assess          one feature vector  -> one trusted verdict
//	POST   /v1/assess/batch    pre-batched vectors -> verdicts, one AssessBatch
//	POST   /v1/assess/stream   NDJSON stream of raw DVFS states -> NDJSON verdicts
//	GET    /v1/models          loaded shards, versions and configurations
//	POST   /v1/models          load or hot-swap a shard (admin)
//	GET    /v1/models/{name}   one shard's description
//	DELETE /v1/models/{name}   unload a shard (admin)
//	GET    /healthz            liveness
//	GET    /stats              fleet epoch + per-shard serving counters
//
// Requests route to shards by precedence: an explicit "model" field wins;
// otherwise a "device" key is mapped through a consistent-hash ring (a
// device sticks to its shard until the fleet membership changes, and a
// membership change only remaps the devices nearest the changed shard);
// otherwise the default model serves.
//
// Each shard name resolves to one detector version, and every /v1/assess
// request is assessed inline, on the handler's own goroutine: a trained
// detector is read-only, so concurrent requests share it directly, and
// every verdict is the one a direct Assess returns. Admission control
// bounds each shard: Config.MaxInflight caps its concurrent work, and
// both assessment endpoints answer a shed with 503 + Retry-After. /stats
// reports shed totals plus each shard's in-flight gauge.
//
// There is no cross-request result cache: the detector reads continuous
// HPC/DVFS counter windows, which rarely repeat bit for bit, and on the
// one benchmark workload with built-in repeats a cache neither lowered
// latency beyond run-to-run noise nor saved CPU per verdict. Every
// /v1/assess request is validated, assessed and recorded.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trusthmd/pkg/detector"
	"trusthmd/pkg/verdictstore"
)

// Config tunes the serving layer; the zero value gets sane defaults.
type Config struct {
	// MaxInflight caps one shard's concurrent work — single assessments
	// running plus client-batch samples assessing (default 1024). Beyond
	// it requests shed with 503 + Retry-After. Negative means unbounded.
	MaxInflight int
	// MaxBatchSamples caps the size of a client-supplied /v1/assess/batch
	// body (default 4096 vectors).
	MaxBatchSamples int
	// MaxBodyBytes caps request body size on the JSON assessment
	// endpoints (default 8 MiB). The streaming endpoint is exempt — it is
	// bounded per line by MaxStreamLineBytes — and POST /v1/models uses
	// MaxAdminBodyBytes, since an inline model upload is far larger than
	// any feature vector.
	MaxBodyBytes int64
	// MaxAdminBodyBytes caps POST /v1/models bodies (default 64 MiB):
	// inline uploads carry a whole base64-encoded gob model.
	MaxAdminBodyBytes int64
	// DefaultModel names the shard serving requests that carry neither
	// "model" nor "device"; when unset, the only loaded shard serves them.
	DefaultModel string
	// AdminToken guards the mutating admin endpoints (POST /v1/models,
	// DELETE /v1/models/{name}): when set, they require
	// "Authorization: Bearer <token>". Empty leaves them open — acceptable
	// on trusted networks and in tests, unacceptable on anything public.
	AdminToken string
	// PrepareDetector, when set, is applied to every detector the fleet
	// installs, before it serves: NewFleet's initial models, Load, Swap and
	// LoadOrSwap, and so the admin endpoint, the cluster catalog and the
	// retrain controller alike. The daemon's fleet-wide -threshold override
	// is this hook. An error refuses the install.
	PrepareDetector func(*detector.Detector) (*detector.Detector, error)
	// MaxStreamLineBytes caps one NDJSON line on /v1/assess/stream
	// (default 256 KiB). The stream body as a whole is unbounded — that is
	// the point of streaming — so the line cap is the overload valve.
	MaxStreamLineBytes int
	// MaxStreamWindow caps the per-session window size a stream header may
	// request (default 65536 samples), bounding per-connection memory.
	MaxStreamWindow int
	// StreamIdleTimeout bounds the wait for the next NDJSON line on
	// /v1/assess/stream (default 5m): a client that opens a stream and
	// goes silent would otherwise pin a handler goroutine and its session
	// for the daemon's lifetime. Negative disables the idle bound.
	StreamIdleTimeout time.Duration
	// Verdicts, when set, receives every served verdict (assess, batch
	// and stream paths alike) and powers GET /v1/verdicts and the
	// drift-driven retrain loop. Nil disables persistence. The caller owns
	// the store's lifecycle: close it after the fleet.
	Verdicts *verdictstore.Store
}

func (c Config) withDefaults() Config {
	switch {
	case c.MaxInflight == 0:
		c.MaxInflight = 1024
	case c.MaxInflight < 0:
		c.MaxInflight = 0 // unbounded
	}
	if c.MaxBatchSamples <= 0 {
		c.MaxBatchSamples = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxAdminBodyBytes <= 0 {
		c.MaxAdminBodyBytes = 64 << 20
	}
	if c.MaxStreamLineBytes <= 0 {
		c.MaxStreamLineBytes = 256 << 10
	}
	if c.MaxStreamWindow <= 0 {
		c.MaxStreamWindow = 1 << 16
	}
	if c.StreamIdleTimeout == 0 {
		c.StreamIdleTimeout = 5 * time.Minute
	}
	return c
}

// Server is the HTTP transport over a Fleet. Create it with NewServer,
// mount it as an http.Handler, and Close it on shutdown to wait out the
// fleet's assessments in flight.
type Server struct {
	fleet *Fleet
	mux   *http.ServeMux
	// draining is closed by BeginDrain so long-lived handlers (NDJSON
	// streams) finish promptly instead of pinning http.Server.Shutdown
	// until the client hangs up.
	draining  chan struct{}
	drainOnce sync.Once
	// retrain is the closed-loop attachment (AttachRetrain): /stats
	// reports its trigger count and state.
	retrain atomic.Pointer[RetrainController]
	// cluster is the fleet-membership attachment (AttachCluster): non-local
	// shards forward to their owner, POST /v1/models goes fleet-wide, and
	// /stats + /v1/cluster report the node's cluster identity.
	cluster atomic.Pointer[clusterBox]
}

// NewServer mounts the HTTP transport over a fleet. Closing the server
// closes the fleet.
func NewServer(f *Fleet) *Server {
	s := &Server{fleet: f, mux: http.NewServeMux(), draining: make(chan struct{})}
	s.mux.HandleFunc("/v1/assess", s.handleAssess)
	s.mux.HandleFunc("/v1/assess/batch", s.handleAssessBatch)
	s.mux.HandleFunc("/v1/assess/stream", s.handleAssessStream)
	s.mux.HandleFunc("/v1/models", s.handleModels)
	s.mux.HandleFunc("/v1/models/", s.handleModelByName)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/v1/verdicts", s.handleVerdicts)
	s.mux.HandleFunc("/v1/cluster", s.handleClusterStatus)
	return s
}

// AttachRetrain wires a retrain controller into the server so /stats
// reports its trigger count and state.
func (s *Server) AttachRetrain(c *RetrainController) { s.retrain.Store(c) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Fleet returns the shard registry the server fronts.
func (s *Server) Fleet() *Fleet { return s.fleet }

// BeginDrain tells long-lived handlers (open NDJSON streams) to wind
// down: each open stream emits its summary line and returns, so
// http.Server.Shutdown can complete instead of waiting out its budget on
// a client that keeps its stream open. Call it before (or concurrently
// with) Shutdown; Close implies it.
func (s *Server) BeginDrain() { s.drainOnce.Do(func() { close(s.draining) }) }

// Close closes the underlying fleet, waiting out its assessments in flight.
// The HTTP listener should be shut down first so no new requests arrive.
func (s *Server) Close() {
	s.BeginDrain()
	s.fleet.Close()
}

// routeBody is the front half both JSON assessment handlers share: read
// the body, route it, and either forward it to the shard's owner or decode
// it here. A cluster member routes from a peek at the keys (vecKey names
// the vector field), so a body another node owns is forwarded with its
// numbers unread and decoded only there; without a hook, or when the peek
// declines, the body is decoded first, so a refused body gets the same 400
// on every node. decode fills the request that model and device point
// into. routeBody reports whether the request is this node's to serve,
// with *model set to the routed shard; when it is not, the response has
// been written.
func (s *Server) routeBody(w http.ResponseWriter, r *http.Request, sc *codecScratch, vecKey string, model, device *string, decode func() error) bool {
	if !s.readBody(w, r, sc, s.fleet.cfg.MaxBodyBytes) {
		return false
	}
	peeked := false
	if s.clusterHook() != nil {
		*model, *device, peeked = peekRoute(sc.body, sc, vecKey)
	}
	if !peeked && refuseBody(w, decode()) {
		return false
	}
	shard, owner := s.route(r, *model, *device)
	if owner != nil {
		owner.ForwardAssess(w, r, shard, *device, sc.body)
		return false
	}
	if peeked && refuseBody(w, decode()) {
		return false
	}
	*model = shard
	return true
}

func (s *Server) handleAssess(w http.ResponseWriter, r *http.Request) {
	sc := getCodecScratch()
	defer putCodecScratch(sc)
	var req AssessRequest
	if !s.routeBody(w, r, sc, "features", &req.Model, &req.Device,
		func() error { return decodeAssessRequest(sc.body, sc, &req) }) {
		return
	}
	// Hand the scratch vote buffer to the assessment: the verdict's vote
	// distribution is copied into it instead of a fresh allocation, and the
	// possibly-regrown buffer comes back with the result.
	out, err := s.fleet.Assess(r.Context(), AssessSpec{
		Model:    req.Model,
		Device:   req.Device,
		Features: req.Features,
		VoteBuf:  sc.votes,
	})
	if err != nil {
		writeAssessError(w, err)
		return
	}
	sc.votes = out.Result.VoteDist
	sc.out = appendResultResponse(sc.out[:0], out.Model, out.Version, &out.Result)
	writeBytes(w, http.StatusOK, sc.out)
}

func (s *Server) handleAssessBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sc := getCodecScratch()
	defer putCodecScratch(sc)
	var req BatchRequest
	if !s.routeBody(w, r, sc, "batch", &req.Model, &req.Device,
		func() error { return decodeBatchRequest(sc.body, sc, &req) }) {
		return
	}
	if !s.fleet.enter() {
		writeResolveError(w, ErrClosed)
		return
	}
	defer s.fleet.calls.Done()
	sh, err := s.fleet.resolve(req.Model, req.Device)
	if err != nil {
		writeResolveError(w, err)
		return
	}
	if len(req.Batch) == 0 {
		writeError(w, http.StatusBadRequest, "batch missing or empty")
		return
	}
	if len(req.Batch) > s.fleet.cfg.MaxBatchSamples {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Batch), s.fleet.cfg.MaxBatchSamples))
		return
	}
	dim := sh.det.InputDim()
	for i, x := range req.Batch {
		if err := validateFeatures(x, dim); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("batch[%d]: %v", i, err))
			return
		}
	}
	n := len(req.Batch)
	// A client batch is one admission unit: reserve its samples up front so
	// single assessments observe batch work in the in-flight gauge. An
	// overloaded shard sheds the whole batch with the same 503 +
	// Retry-After as /v1/assess.
	if err := sh.admit(int64(n)); err != nil {
		writeAssessError(w, err)
		return
	}
	defer sh.release(int64(n))
	// The client already aggregated, so the rows go straight to one batched
	// assessment. The results are scratch-owned, which is safe because the
	// verdict records are framed and the response is encoded before the
	// scratch is pooled again.
	results, err := sh.det.AssessBatchInto(&sc.assess, req.Batch)
	if err != nil {
		sh.stats.errors.Add(int64(n))
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	sh.stats.batchRequests.Add(1)
	sh.stats.batchSamples.Add(int64(n))
	sh.stats.observe(results)
	// Tap every row into the verdict store as one group (latency is the
	// whole batch's serving time — the rows were answered together).
	if s.fleet.cfg.Verdicts != nil {
		lat := time.Since(start)
		recs := sc.recs[:0]
		for i := range results {
			recs = append(recs, verdictRecord(req.Device, "batch", sh, &results[i], req.Batch[i], lat))
		}
		s.fleet.storeGroup(recs)
		clear(recs) // the pooled scratch must not pin this request's strings and slices
		sc.recs = recs[:0]
	}
	sc.out = appendBatchResponseResults(sc.out[:0], sh.name, sh.version, results)
	writeBytes(w, http.StatusOK, sc.out)
}

// handleModels serves the listing (GET) and the admin load/swap (POST).
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	if r.Method == http.MethodPost {
		s.handleLoadModel(w, r)
		return
	}
	epoch, models := s.fleet.ModelsWithEpoch()
	writeJSON(w, http.StatusOK, ModelsResponse{Epoch: epoch, Models: models})
}

// handleModelByName serves /v1/models/{name}: GET describes one shard,
// DELETE (admin) unloads it.
func (s *Server) handleModelByName(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/v1/models/")
	if name == "" || strings.Contains(name, "/") {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no such resource %q", r.URL.Path))
		return
	}
	if !requireMethod(w, r, http.MethodGet, http.MethodDelete) {
		return
	}
	if r.Method == http.MethodDelete {
		s.handleUnloadModel(w, r, name)
		return
	}
	for _, m := range s.fleet.Models() {
		if m.Name == name {
			writeJSON(w, http.StatusOK, m)
			return
		}
	}
	writeError(w, http.StatusNotFound, fmt.Sprintf("unknown model %q (loaded: %v)", name, s.fleet.Names()))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "models": s.fleet.Len()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	epoch, stats := s.fleet.StatsWithEpoch()
	// shed_total aggregates admission-control rejections fleet-wide — the
	// single number an operator watches to know the box is saturated.
	var shedTotal int64
	for _, st := range stats {
		shedTotal += st.Shed
	}
	// The closed-loop keys are always present (zero-valued when the
	// corresponding piece is not attached) so dashboards and tests can
	// assert on them unconditionally.
	out := map[string]any{
		"fleet_epoch":     epoch,
		"shards":          stats,
		"shed_total":      shedTotal,
		"last_swap_cause": s.fleet.LastSwapCause(),
		"verdicts_stored": int64(0),
		// Verdicts a failing store refused: serving never fails on them,
		// so this count is their only trace.
		"verdict_append_errors": s.fleet.verdictAppendErrs.Load(),
		"retrains_triggered":    int64(0),
		// Cluster identity keys are likewise always present (zero-valued on
		// a standalone daemon) and overwritten from the hook's snapshot when
		// the node is a fleet member.
		"node_id":       "",
		"role":          "",
		"members_alive": 0,
		"forwards_in":   int64(0),
		"forwards_out":  int64(0),
	}
	if st := s.fleet.cfg.Verdicts; st != nil {
		snap := st.Stats()
		out["verdicts_stored"] = snap.Records
		out["verdict_store"] = snap
	}
	if rc := s.retrain.Load(); rc != nil {
		snap := rc.Stats()
		out["retrains_triggered"] = snap.Retrains
		out["retrain"] = snap
	}
	if hook := s.clusterHook(); hook != nil {
		for k, v := range hook.StatsFields() {
			out[k] = v
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// readBody enforces POST and slurps the request body into sc.body,
// bounding it at limit bytes — the hot-path replacement for the
// MaxBytesReader + json.Decoder pipeline, reading into pooled scratch
// instead of wrapping the body in a fresh limiter per request.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, sc *codecScratch, limit int64) bool {
	if !requireMethod(w, r, http.MethodPost) {
		return false
	}
	buf := sc.body[:0]
	if cap(buf) == 0 {
		buf = make([]byte, 0, 4096)
	}
	for {
		if int64(len(buf)) > limit {
			sc.body = buf
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", limit))
			return false
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			sc.body = buf
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
			return false
		}
	}
	sc.body = buf
	if int64(len(buf)) > limit {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", limit))
		return false
	}
	return true
}

// decodeJSONLimit enforces POST, bounds the body at limit bytes, and
// decodes strictly.
func (s *Server) decodeJSONLimit(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	if !requireMethod(w, r, http.MethodPost) {
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	if dec.More() {
		// Two concatenated documents would silently drop the second.
		writeError(w, http.StatusBadRequest, "trailing data after JSON body")
		return false
	}
	return true
}

// refuseBody answers 400 for a body the strict decoder refused, and reports
// whether it did.
func refuseBody(w http.ResponseWriter, err error) bool {
	if err == nil {
		return false
	}
	writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
	return true
}

// writeResolveError maps a fleet resolve failure onto the wire: a closed
// fleet sheds with 503, everything else (unknown model, empty fleet,
// ambiguous default) is the caller naming something that is not there.
func writeResolveError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrClosed) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	writeError(w, http.StatusNotFound, err.Error())
}

// contentTypeJSON is the shared Content-Type header value; assigning the
// slice directly skips the per-call []string allocation Header().Set pays.
var contentTypeJSON = []string{"application/json"}

// retryAfterOne is the shared Retry-After value every shed answer carries.
var retryAfterOne = []string{"1"}

// bodyQueueFull is the precomputed shed envelope: a saturated box answers
// 503 from static bytes instead of encoding its way through its own
// overload.
var bodyQueueFull = appendErrorResponse(nil, ErrQueueFull.Error())

// methodNotAllowedBodies precomputes the 405 envelope for every
// Allow-header combination the mux mounts, so method discipline on a
// saturated box costs no encoding.
var methodNotAllowedBodies = map[string][]byte{}

func init() {
	for _, ms := range [][]string{
		{http.MethodPost},
		{http.MethodGet},
		{http.MethodGet, http.MethodPost},
		{http.MethodGet, http.MethodDelete},
	} {
		methodNotAllowedBodies[strings.Join(ms, ", ")] =
			appendErrorResponse(nil, "use "+strings.Join(ms, " or "))
	}
}

// requireMethod answers 405 (with the Allow header listing every accepted
// method, per RFC 9110) unless the request used one of them. The error
// body keeps the JSON envelope like every other non-2xx answer; the known
// method combinations are served from precomputed bytes.
func requireMethod(w http.ResponseWriter, r *http.Request, methods ...string) bool {
	for _, m := range methods {
		if r.Method == m {
			return true
		}
	}
	allow := strings.Join(methods, ", ")
	w.Header().Set("Allow", allow)
	if body, ok := methodNotAllowedBodies[allow]; ok {
		writeBytes(w, http.StatusMethodNotAllowed, body)
		return false
	}
	writeError(w, http.StatusMethodNotAllowed, fmt.Sprintf("use %s", strings.Join(methods, " or ")))
	return false
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = contentTypeJSON
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// chunkingThreshold is net/http's buffer ahead of a response body: a
// handler that writes no more than this gets its Content-Length set by
// net/http, and a longer body without one goes out chunked.
const chunkingThreshold = 2048

// writeBytes answers with a pre-encoded JSON body. A body longer than
// chunkingThreshold gets its length here, so it is sent as one
// known-length body rather than chunked.
func writeBytes(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h["Content-Type"] = contentTypeJSON
	if len(body) > chunkingThreshold {
		h["Content-Length"] = []string{strconv.Itoa(len(body))}
	}
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeBytes(w, code, appendErrorResponse(nil, msg))
}
