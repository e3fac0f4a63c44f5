package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"

	"trusthmd/pkg/detector"
	"trusthmd/pkg/serve"
)

// Fleet-wide hot swaps: an authenticated POST /v1/models on ANY node
// becomes a two-phase rollout. A follower relays the request to the
// coordinator; the coordinator stages the gob on every alive member
// (phase 1 — any failure aborts everywhere, nothing changed), then
// commits everywhere (phase 2 — each member's commit installs the model
// into its local fleet if it serves the shard, via the same lossless
// Fleet.Swap the single-node admin path uses). A partial phase-2 failure
// rolls the already-committed members back to the previous version, so
// the cluster never settles with nodes split across model versions.

// SwapResponse answers a fleet-wide POST /v1/models.
type SwapResponse struct {
	Name string `json:"name"`
	// Version is the cluster catalog version (a distribution sequence per
	// name, independent of each node's local fleet version counter).
	Version  uint64 `json:"version"`
	Replaced bool   `json:"replaced"`
	// Nodes is how many members staged and committed the model.
	Nodes int           `json:"nodes"`
	Info  detector.Info `json:"info"`
}

// HandleModelLoad implements serve.ClusterHook. Admin auth was already
// enforced by the serve handler.
func (a *Agent) HandleModelLoad(w http.ResponseWriter, r *http.Request, req serve.LoadModelRequest) bool {
	if !a.cfg.Coordinator {
		a.relayToCoordinator(w, r, req)
		return true
	}
	data := req.Data
	if req.Path != "" {
		var err error
		if data, err = os.ReadFile(req.Path); err != nil {
			serve.WriteError(w, http.StatusBadRequest, fmt.Sprintf("model %s: %v", req.Name, err))
			return true
		}
	}
	det, err := detector.Load(bytes.NewReader(data))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, fmt.Sprintf("model %s: %v", req.Name, err))
		return true
	}

	a.rolloutMu.Lock()
	defer a.rolloutMu.Unlock()
	_, _, existed := a.cat.get(req.Name)
	version := a.cat.nextVersion(req.Name)
	v := a.view.Load()
	members := v.table.Members

	// Phase 1: stage on every non-dead member. Any failure aborts the
	// rollout everywhere — staging changes nothing observable, so the
	// abort path is free of rollback hazards.
	staged := make([]Member, 0, len(members))
	for _, m := range members {
		if m.State == StateDead {
			continue
		}
		if err := a.stageOn(m, req.Name, version, data); err != nil {
			for _, s := range staged {
				a.abortOn(s, req.Name, version)
			}
			serve.WriteError(w, http.StatusBadGateway,
				fmt.Sprintf("staging %s v%d on %s: %v", req.Name, version, m.ID, err))
			return true
		}
		staged = append(staged, m)
	}

	// Phase 2: commit everywhere. On a partial failure, roll each member
	// that already committed back to the version it had before (version 0
	// — a revert to uncommitted — when the name was new to it), so no
	// member's version goes below where it stood.
	type done struct {
		m    Member
		prev uint64
	}
	committed := make([]done, 0, len(staged))
	for _, m := range staged {
		prev, err := a.commitOn(m, req.Name, version)
		if err != nil {
			for _, c := range committed {
				if _, rerr := a.commitOn(c.m, req.Name, c.prev); rerr != nil {
					a.cfg.Logf("cluster: rollback of %s on %s failed: %v", req.Name, c.m.ID, rerr)
				}
			}
			serve.WriteError(w, http.StatusBadGateway,
				fmt.Sprintf("committing %s v%d on %s (rolled back): %v", req.Name, version, m.ID, err))
			return true
		}
		committed = append(committed, done{m, prev})
	}

	a.publishTable() // a new name extends the cluster shard set
	a.cfg.Logf("cluster: %s rolled out %s v%d to %d nodes", a.cfg.NodeID, req.Name, version, len(committed))
	serve.WriteJSON(w, http.StatusOK, SwapResponse{
		Name:     req.Name,
		Version:  version,
		Replaced: existed,
		Nodes:    len(committed),
		Info:     det.Info(),
	})
	return true
}

// stageOn / commitOn / abortOn run one phase step on one member, locally
// when the member is this node.
func (a *Agent) stageOn(m Member, name string, version uint64, data []byte) error {
	if m.ID == a.cfg.NodeID {
		a.cat.stage(name, version, data)
		return nil
	}
	return a.postJSON(m.Addr, "/cluster/v1/stage", CatalogModel{Name: name, Version: version, Data: data}, nil)
}

func (a *Agent) commitOn(m Member, name string, version uint64) (prev uint64, err error) {
	if m.ID == a.cfg.NodeID {
		return a.commitLocal(name, version)
	}
	var resp commitResponse
	err = a.postJSON(m.Addr, "/cluster/v1/commit", commitRequest{Name: name, Version: version}, &resp)
	return resp.Previous, err
}

// errNotStaged refuses a commit of a version this node does not hold.
var errNotStaged = errors.New("not staged here")

// commitLocal makes a staged version this node's committed one and, where
// the node serves the shard, its live model; version 0 reverts the name to
// uncommitted and unloads it (the rollback of a first install). It returns
// the version committed before.
func (a *Agent) commitLocal(name string, version uint64) (prev uint64, err error) {
	prev, _, _ = a.cat.get(name)
	data, ok := a.cat.commit(name, version)
	if !ok {
		return prev, fmt.Errorf("version %d of %q is %w", version, name, errNotStaged)
	}
	if version == 0 {
		_ = a.fleet.Unload(name)
		return prev, nil
	}
	return prev, a.installCommitted(name, data)
}

func (a *Agent) abortOn(m Member, name string, version uint64) {
	if m.ID == a.cfg.NodeID {
		a.cat.abort(name, version)
		return
	}
	_ = a.postJSON(m.Addr, "/cluster/v1/abort", commitRequest{Name: name, Version: version}, nil)
}

// relayToCoordinator forwards a follower's admin load to the coordinator
// and relays the answer.
func (a *Agent) relayToCoordinator(w http.ResponseWriter, r *http.Request, req serve.LoadModelRequest) {
	body, err := jsonBody(req)
	if err != nil {
		serve.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	proxy, err := http.NewRequestWithContext(r.Context(), http.MethodPost, *a.coordAddr.Load()+"/v1/models", body)
	if err != nil {
		serve.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	proxy.Header.Set("Content-Type", "application/json")
	if auth := r.Header.Get("Authorization"); auth != "" {
		proxy.Header.Set("Authorization", auth)
	}
	resp, err := a.cfg.Client.Do(proxy)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		serve.WriteError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("relaying model load to coordinator: %v", err))
		return
	}
	relayResponse(w, resp)
}

// jsonBody marshals v into a reader.
func jsonBody(v any) (io.Reader, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return bytes.NewReader(raw), nil
}
