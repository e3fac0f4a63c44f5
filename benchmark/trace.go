package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"trusthmd/pkg/serve"
)

// Tracing is done entirely from this package: spans are recorded around
// the calls the benchmark makes into each layer's public surface — the
// mounted handler, the cluster hook the server calls back into, the
// client the agent forwards with — never inside the program. A nil
// *tracer is valid and installs nothing, which is how untraced runs boot.

// Span names. A span's parent is fixed by where it is recorded.
const (
	spanOp      = "client.op"          // generator: send (or due time) to verified answer
	spanLate    = "gen.late"           // open loop: due time to actual send
	spanHandler = "serve.handler"      // entry node: mounted handler
	spanFwdIn   = "serve.handler.fwd"  // owner node: handler of a forwarded request
	spanResolve = "cluster.resolve"    // ClusterHook.ResolveAssess
	spanForward = "cluster.forward"    // ClusterHook.ForwardAssess, hop included
	spanAssess  = "serve.fleet_assess" // Fleet.Assess called directly
	spanBatch   = "detector.batch"     // Detector.AssessBatchInto called directly
)

// opHeader carries the op id from the generator to the handler taps, and
// across the forward hop.
const opHeader = "X-Bench-Op"

// span is one timed interval of one op. Times are nanoseconds since the
// tracer was created.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<18)}
}

// enabled reports whether spans are being recorded right now.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(name, parent string, op uint64, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Start: start, End: end})
	t.mu.Unlock()
}

// take returns the spans recorded so far and starts a fresh list.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = make([]span, 0, cap(out))
	return out
}

type opKey struct{}

// tapHandler wraps a node's mounted handler with a span. The op id comes
// in on a header and is put in the request context, where the forwarding
// client finds it again.
func (t *tracer) tapHandler(next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw := r.Header.Get(opHeader)
		if raw == "" || !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.ParseUint(raw, 10, 64)
		name, parent := spanHandler, spanOp
		if r.Header.Get(serve.ForwardedHeader) != "" {
			name, parent = spanFwdIn, spanForward
		}
		start := t.now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), opKey{}, op)))
		t.record(name, parent, op, start, t.now())
	})
}

// hookTap times the two calls the assessment handlers make into the
// cluster control plane.
type hookTap struct {
	serve.ClusterHook
	t *tracer
}

// tapHook wraps a cluster agent before it is attached to its server.
func (t *tracer) tapHook(h serve.ClusterHook) serve.ClusterHook {
	if t == nil {
		return h
	}
	return &hookTap{ClusterHook: h, t: t}
}

func (h *hookTap) ResolveAssess(r *http.Request, model, device string) (string, bool) {
	op, ok := r.Context().Value(opKey{}).(uint64)
	if !ok {
		return h.ClusterHook.ResolveAssess(r, model, device)
	}
	parent := spanHandler
	if r.Header.Get(serve.ForwardedHeader) != "" {
		parent = spanFwdIn
	}
	start := h.t.now()
	shard, local := h.ClusterHook.ResolveAssess(r, model, device)
	h.t.record(spanResolve, parent, op, start, h.t.now())
	return shard, local
}

func (h *hookTap) ForwardAssess(w http.ResponseWriter, r *http.Request, shard, device string, body []byte) {
	op, ok := r.Context().Value(opKey{}).(uint64)
	if !ok {
		h.ClusterHook.ForwardAssess(w, r, shard, device, body)
		return
	}
	start := h.t.now()
	h.ClusterHook.ForwardAssess(w, r, shard, device, body)
	h.t.record(spanForward, spanHandler, op, start, h.t.now())
}

// forwardClient is the HTTP client a traced agent forwards with: the
// daemon's default client, plus the op id copied from the request context
// (the agent derives it from the inbound request) onto the outbound
// header so the owner's handler span joins the same op.
func (t *tracer) forwardClient() *http.Client {
	if t == nil {
		return nil // cluster.Config's default
	}
	return &http.Client{Timeout: 10 * time.Second, Transport: opCarrier{}}
}

type opCarrier struct{}

func (opCarrier) RoundTrip(r *http.Request) (*http.Response, error) {
	if op, ok := r.Context().Value(opKey{}).(uint64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(opHeader, strconv.FormatUint(op, 10))
	}
	return http.DefaultTransport.RoundTrip(r)
}

// layerTimes reduces spans to per-op durations and self times by span
// name. A span's self time is its duration minus the part of it that its
// children (same op, parent = its name) cover.
func layerTimes(spans []span) (dur, self map[string][]float64) {
	type key struct {
		op   uint64
		name string
	}
	children := make(map[key]int64, len(spans))
	for _, s := range spans {
		if s.Parent != "" {
			children[key{s.Op, s.Parent}] += s.End - s.Start
		}
	}
	dur, self = map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		d := s.End - s.Start
		own := d - children[key{s.Op, s.Name}]
		if own < 0 {
			own = 0
		}
		dur[s.Name] = append(dur[s.Name], float64(d))
		self[s.Name] = append(self[s.Name], float64(own))
	}
	return dur, self
}

// writeSpans dumps the traced window for offline inspection.
func writeSpans(path string, meta runMeta, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Meta     runMeta `json:"meta"`
		Workload string  `json:"workload"`
		Spans    []span  `json:"spans"`
	}{meta, workload, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
