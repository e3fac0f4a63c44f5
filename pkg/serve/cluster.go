package serve

import (
	"net/http"

	"trusthmd/pkg/detector"
)

// Cluster integration: serve stays a single-node transport, and a cluster
// control plane (pkg/cluster) attaches through the ClusterHook interface —
// serve defines the seam, the cluster implements it, so the import points
// cluster -> serve and no cycle forms. Without an attached hook every path
// below is a no-op and the server behaves exactly as a standalone daemon.
//
// The hook intercepts at four places:
//
//   - assessment routing: ResolveAssess maps the request's model/device
//     keys onto the cluster-wide shard space and says whether this node
//     owns the shard; ForwardAssess proxies non-local requests to the
//     owner (with a loop-guard header so a forwarded request is always
//     served where it lands).
//   - streaming: the NDJSON loop stays in serve whoever owns the shard
//     (handleAssessStream, with all its socket hygiene); for a non-local
//     stream serve keeps the exported stream state between lines and
//     PushStream carries each chunk, with that state, to the owner.
//   - admin: HandleModelLoad lets the hook turn POST /v1/models into a
//     fleet-wide two-phase hot swap.
//   - observability: StatsFields merges cluster counters into /stats and
//     Status answers GET /v1/cluster.

// ForwardedHeader is the loop guard on node-to-node forwarded requests:
// a request carrying it is always served locally by the receiving node
// (installing the shard from the cluster catalog on demand), never
// forwarded again — so a stale routing table cannot create a forwarding
// cycle. The value names the node that forwarded.
const ForwardedHeader = "X-Trusthmd-Forwarded"

// ClusterHook is the seam a cluster control plane implements to make one
// server a fleet member. Methods must be safe for concurrent use.
type ClusterHook interface {
	// ResolveAssess maps a request's routing keys onto the cluster: it
	// returns the cluster-wide shard name the request belongs to (device
	// keys are hashed over the whole cluster's shard set, not just the
	// local fleet's) and whether this node serves it locally. Forwarded
	// requests (ForwardedHeader present) always resolve local.
	ResolveAssess(r *http.Request, model, device string) (shard string, local bool)
	// ForwardAssess proxies a non-local request (original body bytes, same
	// path) to the shard's owner and relays the response. The handler
	// normally routed the body from a peek at its keys alone, so its numbers
	// are unread: a body the owner's decoder refuses is answered by the
	// owner, in the bytes a local refusal would have. It always writes a
	// response, falling over to ring successors on network errors and
	// answering 503 when no owner is reachable.
	ForwardAssess(w http.ResponseWriter, r *http.Request, shard, device string, body []byte)
	// PushStream applies one chunk of a non-local stream on the shard's
	// owner (Fleet.StreamPush there) and returns its decisions plus the
	// updated stream state. A nil state with no states is the opening
	// push, which only checks cfg against the owner's model. The push is
	// idempotent given its state, so on a transport failure the hook
	// replays the same chunk onto a ring successor and the stream goes on
	// losslessly; the error it returns otherwise ends the stream.
	PushStream(shard, device string, cfg detector.StreamConfig, st *detector.SessionState, states []int) (StreamPushResult, error)
	// HandleModelLoad intercepts an authenticated POST /v1/models and
	// applies it cluster-wide; returning false falls back to the local
	// single-node install.
	HandleModelLoad(w http.ResponseWriter, r *http.Request, req LoadModelRequest) bool
	// StatsFields returns the cluster counters /stats merges into its
	// snapshot: node_id, role, members_alive, forwards_in, forwards_out.
	StatsFields() map[string]any
	// Status answers GET /v1/cluster: the node's view of the membership
	// table and catalog.
	Status() any
}

// clusterBox wraps the hook interface so it can live in an
// atomic.Pointer (which needs a concrete element type).
type clusterBox struct{ hook ClusterHook }

// AttachCluster wires a cluster control plane into the server: assessment
// and stream requests for shards owned elsewhere are forwarded, POST
// /v1/models becomes fleet-wide, and /stats + /v1/cluster report the
// node's cluster identity.
func (s *Server) AttachCluster(h ClusterHook) { s.cluster.Store(&clusterBox{hook: h}) }

// clusterHook returns the attached hook, nil when standalone.
func (s *Server) clusterHook() ClusterHook {
	if b := s.cluster.Load(); b != nil {
		return b.hook
	}
	return nil
}

// route is the one cluster-routing step every assessment entry point
// (assess, batch, stream) takes before touching the local fleet. It
// resolves the request's keys against the cluster-wide shard space and
// returns the shard name plus, when another node owns that shard, the
// hook to hand the request to (ForwardAssess writes the response;
// PushStream takes a stream's chunks). A nil owner means serve here, with
// the returned name as the model key: pinning it keeps the local ring from
// re-routing a device the cluster already placed. Standalone, the keys
// pass through untouched.
func (s *Server) route(r *http.Request, model, device string) (shard string, owner ClusterHook) {
	hook := s.clusterHook()
	if hook == nil {
		return model, nil
	}
	shard, local := hook.ResolveAssess(r, model, device)
	if local {
		return shard, nil
	}
	return shard, hook
}

// handleClusterStatus is GET /v1/cluster: the node's membership view, or
// 404 on a standalone daemon.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	hook := s.clusterHook()
	if hook == nil {
		writeError(w, http.StatusNotFound, "no cluster attached")
		return
	}
	writeJSON(w, http.StatusOK, hook.Status())
}

// WriteJSON / WriteError expose the server's response envelope to the
// cluster package, so node-to-node endpoints answer in the same shape as
// every other endpoint.
func WriteJSON(w http.ResponseWriter, code int, v any) { writeJSON(w, code, v) }

// WriteError writes the standard JSON error envelope.
func WriteError(w http.ResponseWriter, code int, msg string) { writeError(w, code, msg) }

// StreamPushDecision is one decision produced by a StreamPush chunk.
type StreamPushDecision struct {
	// Offset is the index within the pushed chunk of the sample that
	// completed the window.
	Offset int             `json:"offset"`
	Result detector.Result `json:"result"`
}

// StreamPushResult answers one StreamPush: the shard version that served
// the chunk, the decisions it produced, and the exported stream state the
// caller must carry into the next push — the state is the whole stream, so
// the next chunk may land on any node holding the same model.
type StreamPushResult struct {
	Model   string                `json:"model"`
	Version uint64                `json:"version"`
	Results []StreamPushDecision  `json:"results"`
	State   detector.SessionState `json:"state"`
}

// StreamPush is the owner-side half of cluster stream proxying: it applies
// one chunk of DVFS states to a detector.Online resumed from the pushed
// state (nil state opens a fresh one) and returns the decisions plus the
// re-exported state. Holding the stream state on the caller
// makes the protocol stateless here — a chunk may be replayed onto a ring
// successor after this node dies and the stream continues losslessly,
// which is exactly what the cluster does on failover.
func (f *Fleet) StreamPush(model, device string, cfg detector.StreamConfig, st *detector.SessionState, states []int) (StreamPushResult, error) {
	ls, err := f.openStream(model, device, cfg, st)
	if err != nil {
		return StreamPushResult{}, err
	}
	res, err := ls.push(states)
	if err != nil {
		return StreamPushResult{}, err
	}
	res.State = ls.o.Export()
	return res, nil
}
