package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"trusthmd/pkg/serve"
)

// Request forwarding: any node accepts any assessment request; one owned
// by another node is relayed there over plain HTTP with the original body
// (the entry node read only its routing keys; the owner decodes it) and the
// serve.ForwardedHeader loop guard. The receiving node always
// serves a guarded request locally (installing the shard from the catalog
// on demand), so even a routing disagreement between two nodes' tables
// terminates after one hop.

// forwardSuccessors is how many ring positions a forward tries: the owner
// plus fallbacks. A killed node's shards are served by its first ring
// successor immediately — before the coordinator has even noticed the
// death — which is what makes a node kill lossless for forwarded traffic.
const forwardSuccessors = 3

// ResolveAssess implements serve.ClusterHook: it maps the request onto
// the cluster-wide shard space and decides local versus forward.
func (a *Agent) ResolveAssess(r *http.Request, model, device string) (string, bool) {
	v := a.view.Load()
	if v == nil || v.memberRing.Members() == 0 {
		return model, true // cluster not formed yet: behave standalone
	}
	shard := model
	if shard == "" {
		if device == "" {
			return model, true // default-model requests stay local
		}
		// Device keys hash over the cluster's whole shard set — not the
		// local fleet's — so every node maps a device to the same shard.
		shard = v.shardRing.Lookup(device)
		if shard == "" {
			return model, true
		}
	} else if _, known := v.shardSet[shard]; !known {
		return model, true // not cluster-managed; the local fleet decides
	}
	if r.Header.Get(serve.ForwardedHeader) != "" {
		// Loop guard: a forwarded request is served where it lands.
		a.forwardsIn.Add(1)
		if err := a.ensureLocal(shard); err != nil {
			a.cfg.Logf("cluster: %s cannot materialise %q: %v", a.cfg.NodeID, shard, err)
		}
		return shard, true
	}
	if v.owner(shard) == a.cfg.NodeID {
		if err := a.ensureLocal(shard); err != nil {
			a.cfg.Logf("cluster: %s cannot materialise owned shard %q: %v", a.cfg.NodeID, shard, err)
		}
		return shard, true
	}
	return shard, false
}

// ForwardAssess implements serve.ClusterHook: relay the request to the
// shard's owner, falling over to ring successors on transport errors.
// The successor chain may include this node itself — then the request
// loops back over HTTP with the guard header and is served locally, which
// keeps the fallback logic in one place.
func (a *Agent) ForwardAssess(w http.ResponseWriter, r *http.Request, shard, device string, body []byte) {
	v := a.view.Load()
	if v == nil {
		serve.WriteError(w, http.StatusServiceUnavailable, "cluster view not ready")
		return
	}
	var lastErr error
	for i, id := range v.memberRing.Successors(shard, forwardSuccessors) {
		addr, ok := v.addrs[id]
		if !ok {
			continue
		}
		if i > 0 {
			a.forwardFailovers.Add(1)
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
			addr+r.URL.Path, bytes.NewReader(body))
		if err != nil {
			lastErr = err
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(serve.ForwardedHeader, a.cfg.NodeID)
		resp, err := a.cfg.Client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		a.forwardsOut.Add(1)
		relayResponse(w, resp)
		return
	}
	msg := fmt.Sprintf("no reachable owner for shard %q", shard)
	if lastErr != nil {
		msg = fmt.Sprintf("%s: %v", msg, lastErr)
	}
	w.Header().Set("Retry-After", "1")
	serve.WriteError(w, http.StatusServiceUnavailable, msg)
}

// relayResponse copies a forwarded response back to the client: status,
// the headers that matter (content type, shed backoff, and the length when
// the owner sent one, so a long body is not re-sent chunked), and the body.
func relayResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	if resp.ContentLength >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}
