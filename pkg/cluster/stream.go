package cluster

import (
	"errors"
	"net/http"

	"trusthmd/pkg/detector"
	"trusthmd/pkg/serve"
)

// Stream proxying. The NDJSON loop runs in pkg/serve on the node the client
// connected to, whoever owns the shard; what a cluster alone can know is
// where a chunk goes, and that is all this file does. Every push carries the
// complete exported session state (window buffer, stride phase, counters)
// and gets the updated state back, so the protocol is stateless on the
// owner: when the owner dies mid-stream, the SAME chunk and state are
// replayed onto the shard's ring successor and the stream continues with
// decisions element-wise identical to an uninterrupted session — the window
// straddling the kill included. That is the lossless-failover property the
// cluster e2e pins. Stateless also means a proxied stream does not pin a
// shard version: each chunk is answered by whatever version the owner
// serves when it lands, and every result line names it.

// PushStream implements serve.ClusterHook: it applies one chunk on the
// shard's owner, walking the ring successor chain on transport errors —
// the same chunk and state replay losslessly because the push is
// idempotent given its state. A successor chain entry that is this node
// itself serves the chunk in-process.
func (a *Agent) PushStream(shard, device string, cfg detector.StreamConfig, st *detector.SessionState, states []int) (serve.StreamPushResult, error) {
	v := a.view.Load()
	if v == nil {
		return serve.StreamPushResult{}, errors.New("cluster view not ready")
	}
	req := pushRequest{
		Shard:  shard,
		Device: device,
		Levels: cfg.Levels,
		Window: cfg.Window,
		Stride: cfg.Stride,
		State:  st,
		States: states,
	}
	var lastErr error
	for i, id := range v.memberRing.Successors(shard, forwardSuccessors) {
		if i > 0 {
			a.streamFailovers.Add(1)
			a.cfg.Logf("cluster: %s replaying stream chunk for %q onto %s", a.cfg.NodeID, shard, id)
		}
		if id == a.cfg.NodeID {
			if err := a.ensureLocal(shard); err != nil {
				lastErr = err
				continue
			}
			return a.fleet.StreamPush(shard, device, cfg, st, states)
		}
		addr, ok := v.addrs[id]
		if !ok {
			continue
		}
		var res serve.StreamPushResult
		err := a.postJSON(addr, "/cluster/v1/push", req, &res)
		if err == nil {
			a.forwardsOut.Add(1)
			return res, nil
		}
		lastErr = err
		// Application rejections (4xx become plain errors with the remote
		// message) end the stream; only transport-level failures and the
		// 503 a successor answers while it cannot materialise the shard
		// are worth failing over.
		if !retriablePushErr(err) {
			return serve.StreamPushResult{}, err
		}
	}
	if lastErr == nil {
		lastErr = errors.New("no reachable owner for shard " + shard)
	}
	return serve.StreamPushResult{}, lastErr
}

// retriablePushErr reports whether a push failure may succeed on a ring
// successor: network errors (url.Error from the client) and remote 503s
// qualify; anything else is an application rejection.
func retriablePushErr(err error) bool {
	var re *remoteError
	if errors.As(err, &re) {
		return re.status == http.StatusServiceUnavailable
	}
	// Non-remoteError failures from postJSON are transport-level
	// (connection refused, reset, timeout) — the failover case.
	var rd *errRedirect
	return !errors.As(err, &rd)
}
