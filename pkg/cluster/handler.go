package cluster

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"trusthmd/pkg/detector"
	"trusthmd/pkg/serve"
)

// The node-to-node API, mounted under /cluster/v1/ next to the public
// serve mux. All bodies are JSON; when Config.Token is set every request
// requires "Authorization: Bearer <token>".
//
//	POST /cluster/v1/join       join the cluster (coordinator only)
//	POST /cluster/v1/heartbeat  liveness + table pull (coordinator only)
//	POST /cluster/v1/stage      phase 1 of a fleet-wide swap: hold the bytes
//	POST /cluster/v1/commit     phase 2: make a staged version the live one
//	POST /cluster/v1/abort      drop a staged version
//	POST /cluster/v1/push       apply one stream chunk + session state
//	GET  /cluster/v1/model      fetch a committed model payload by name
//
// join and heartbeat on a non-coordinator answer 409 with the coordinator's
// address, so a node told to join through a follower finds the coordinator.

type joinRequest struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	// Models are the joiner's disk-loaded detectors, folded into the
	// cluster catalog so any member can serve them.
	Models []CatalogModel `json:"models,omitempty"`
}

type joinResponse struct {
	Table   Table          `json:"table"`
	Catalog []CatalogModel `json:"catalog,omitempty"`
}

type heartbeatRequest struct {
	ID    string `json:"id"`
	Addr  string `json:"addr"`
	Epoch uint64 `json:"epoch"`
}

type heartbeatResponse struct {
	Epoch uint64 `json:"epoch"`
	// Table is included when the caller's epoch is stale — the pull half
	// of table propagation.
	Table *Table `json:"table,omitempty"`
}

type commitRequest struct {
	Name string `json:"name"`
	// Version 0 reverts the name to uncommitted (rollback of a first
	// install).
	Version uint64 `json:"version"`
}

type commitResponse struct {
	Committed string `json:"committed"`
	Version   uint64 `json:"version"`
	// Previous is the version the member had committed before: its
	// rollback target should the swap fail on another member.
	Previous uint64 `json:"previous"`
}

type redirectResponse struct {
	Error       string `json:"error"`
	Coordinator string `json:"coordinator,omitempty"`
}

// pushRequest is one proxied stream chunk: the full session state rides
// along, so the receiving node needs no session registry and any node
// holding the model can continue the stream.
type pushRequest struct {
	Shard  string                 `json:"shard"`
	Device string                 `json:"device,omitempty"`
	Levels int                    `json:"levels"`
	Window int                    `json:"window"`
	Stride int                    `json:"stride,omitempty"`
	State  *detector.SessionState `json:"state,omitempty"`
	States []int                  `json:"states"`
}

// maxClusterBodyBytes bounds node-to-node request bodies; model payloads
// dominate, so it mirrors the admin surface's 64 MiB.
const maxClusterBodyBytes = 64 << 20

// Handler returns the /cluster/v1/* mux. Mount it on the same listener as
// the serve mux (http.ServeMux patterns keep them disjoint).
func (a *Agent) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/v1/join", a.guard(a.handleJoin))
	mux.HandleFunc("/cluster/v1/heartbeat", a.guard(a.handleHeartbeat))
	mux.HandleFunc("/cluster/v1/stage", a.guard(a.handleStage))
	mux.HandleFunc("/cluster/v1/commit", a.guard(a.handleCommit))
	mux.HandleFunc("/cluster/v1/abort", a.guard(a.handleAbort))
	mux.HandleFunc("/cluster/v1/push", a.guard(a.handlePush))
	mux.HandleFunc("/cluster/v1/model", a.guard(a.handleModel))
	return mux
}

// guard enforces the bearer token.
func (a *Agent) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if a.cfg.Token != "" {
			auth := r.Header.Get("Authorization")
			if subtle.ConstantTimeCompare([]byte(auth), []byte("Bearer "+a.cfg.Token)) != 1 {
				serve.WriteError(w, http.StatusUnauthorized, "cluster endpoint requires a valid bearer token")
				return
			}
		}
		h(w, r)
	}
}

// decodeBody decodes a bounded JSON body, answering the error itself: 413
// only for a body over maxClusterBodyBytes, 400 for one that could not be
// read (truncated, or the peer hung up) or does not decode.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		serve.WriteError(w, http.StatusMethodNotAllowed, "use POST")
		return false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxClusterBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		serve.WriteError(w, status, err.Error())
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		serve.WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

// requireCoordinator answers the 409 redirect when this node is not the
// coordinator; true means the caller may proceed.
func (a *Agent) requireCoordinator(w http.ResponseWriter) bool {
	if a.cfg.Coordinator {
		return true
	}
	coord := *a.coordAddr.Load()
	w.Header()["Content-Type"] = []string{"application/json"}
	w.WriteHeader(http.StatusConflict)
	_ = json.NewEncoder(w).Encode(redirectResponse{
		Error:       "not the coordinator",
		Coordinator: coord,
	})
	return false
}

func (a *Agent) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !a.requireCoordinator(w) {
		return
	}
	if req.ID == "" || req.Addr == "" {
		serve.WriteError(w, http.StatusBadRequest, "join needs id and addr")
		return
	}
	changed := a.members.observe(req.ID, req.Addr, a.cfg.now())
	// Fold the joiner's disk-loaded models into the catalog: first writer
	// wins per name (the common case is every node booting with the same
	// model flags, so this is a no-op for all but the first).
	a.rolloutMu.Lock()
	for _, m := range req.Models {
		if _, _, ok := a.cat.get(m.Name); ok || len(m.Data) == 0 {
			continue
		}
		v := a.cat.nextVersion(m.Name)
		a.cat.stage(m.Name, v, m.Data)
		a.cat.commit(m.Name, v)
		changed = true
	}
	a.rolloutMu.Unlock()
	if changed {
		a.publishTable()
		a.cfg.Logf("cluster: %s joined via %s, table epoch %d", req.ID, a.cfg.NodeID, a.epoch.Load())
	}
	v := a.view.Load()
	serve.WriteJSON(w, http.StatusOK, joinResponse{
		Table:   v.table,
		Catalog: a.cat.committedModels(),
	})
}

func (a *Agent) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !a.requireCoordinator(w) {
		return
	}
	if a.members.observe(req.ID, req.Addr, a.cfg.now()) {
		a.publishTable()
	}
	v := a.view.Load()
	resp := heartbeatResponse{Epoch: v.table.Epoch}
	if req.Epoch != v.table.Epoch {
		t := v.table
		resp.Table = &t
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

func (a *Agent) handleStage(w http.ResponseWriter, r *http.Request) {
	var req CatalogModel
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" || req.Version == 0 || len(req.Data) == 0 {
		serve.WriteError(w, http.StatusBadRequest, "stage needs name, version and data")
		return
	}
	// Validate before holding: a payload that cannot decode must fail the
	// swap in phase 1, where aborting is free.
	if _, err := detector.Load(bytes.NewReader(req.Data)); err != nil {
		serve.WriteError(w, http.StatusBadRequest, fmt.Sprintf("staged model %s: %v", req.Name, err))
		return
	}
	a.cat.stage(req.Name, req.Version, req.Data)
	serve.WriteJSON(w, http.StatusOK, map[string]any{"staged": req.Name, "version": req.Version})
}

func (a *Agent) handleCommit(w http.ResponseWriter, r *http.Request) {
	var req commitRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" {
		serve.WriteError(w, http.StatusBadRequest, "commit needs a name")
		return
	}
	prev, err := a.commitLocal(req.Name, req.Version)
	switch {
	case errors.Is(err, errNotStaged):
		serve.WriteError(w, http.StatusConflict, err.Error())
		return
	case err != nil:
		serve.WriteError(w, http.StatusInternalServerError,
			fmt.Sprintf("installing %s v%d: %v", req.Name, req.Version, err))
		return
	}
	serve.WriteJSON(w, http.StatusOK, commitResponse{Committed: req.Name, Version: req.Version, Previous: prev})
}

func (a *Agent) handleAbort(w http.ResponseWriter, r *http.Request) {
	var req commitRequest
	if !decodeBody(w, r, &req) {
		return
	}
	a.cat.abort(req.Name, req.Version)
	serve.WriteJSON(w, http.StatusOK, map[string]any{"aborted": req.Name, "version": req.Version})
}

// handlePush applies one proxied stream chunk. A shard this node cannot
// materialise answers 503 so the proxy fails over to a ring successor;
// application errors (bad header, invalid state) answer 400/404 and end
// the stream.
func (a *Agent) handlePush(w http.ResponseWriter, r *http.Request) {
	var req pushRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Shard == "" {
		serve.WriteError(w, http.StatusBadRequest, "push needs a shard")
		return
	}
	if err := a.ensureLocal(req.Shard); err != nil {
		w.Header().Set("Retry-After", "1")
		serve.WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	a.forwardsIn.Add(1)
	cfg := detector.StreamConfig{Levels: req.Levels, Window: req.Window, Stride: req.Stride}
	res, err := a.fleet.StreamPush(req.Shard, req.Device, cfg, req.State, req.States)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	serve.WriteJSON(w, http.StatusOK, res)
}

// handleModel serves a committed model payload to members healing their
// catalog replica.
func (a *Agent) handleModel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		serve.WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	name := r.URL.Query().Get("name")
	version, data, ok := a.cat.get(name)
	if !ok {
		serve.WriteError(w, http.StatusNotFound, fmt.Sprintf("no committed model %q", name))
		return
	}
	serve.WriteJSON(w, http.StatusOK, CatalogModel{Name: name, Version: version, Data: data})
}

// --- client side -----------------------------------------------------

// remoteError is a non-2xx answer from another node: the status separates
// retriable overload (503) from application rejections.
type remoteError struct {
	status int
	msg    string
}

func (e *remoteError) Error() string { return e.msg }

// postJSON posts a JSON body to another node and decodes the JSON answer
// into out (ignored when nil). Non-2xx answers become *remoteError
// carrying the remote's error message; a 409 becomes *errRedirect.
func (a *Agent) postJSON(addr, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, addr+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if a.cfg.Token != "" {
		req.Header.Set("Authorization", "Bearer "+a.cfg.Token)
	}
	resp, err := a.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxClusterBodyBytes))
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusConflict {
		var rd redirectResponse
		_ = json.Unmarshal(raw, &rd)
		return &errRedirect{coordinator: rd.Coordinator}
	}
	if resp.StatusCode/100 != 2 {
		var er struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(raw, &er)
		if er.Error == "" {
			er.Error = resp.Status
		}
		return &remoteError{status: resp.StatusCode, msg: fmt.Sprintf("%s%s: %s", addr, path, er.Error)}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// join dials the configured join target (following coordinator redirects)
// until it succeeds or DeadAfter elapses, then adopts the returned table
// and catalog.
func (a *Agent) join() error {
	target := a.cfg.Join
	deadline := a.cfg.now().Add(a.cfg.DeadAfter)
	req := joinRequest{ID: a.cfg.NodeID, Addr: a.cfg.Advertise, Models: localModels(a.fleet)}
	for {
		var resp joinResponse
		err := a.postJSON(target, "/cluster/v1/join", req, &resp)
		var rd *errRedirect
		switch {
		case err == nil:
			for _, m := range resp.Catalog {
				a.cat.stage(m.Name, m.Version, m.Data)
				a.cat.commit(m.Name, m.Version)
			}
			a.view.Store(buildView(resp.Table))
			a.coordAddr.Store(&target)
			a.cfg.Logf("cluster: %s joined %s (table epoch %d)", a.cfg.NodeID, target, resp.Table.Epoch)
			return nil
		case errors.As(err, &rd) && rd.coordinator != "" && rd.coordinator != target:
			target = rd.coordinator
			continue
		}
		if a.cfg.now().After(deadline) {
			return fmt.Errorf("cluster: joining %s: %w", target, err)
		}
		select {
		case <-a.stop:
			return errors.New("cluster: agent closed while joining")
		case <-time.After(a.cfg.Heartbeat):
		}
	}
}

// heartbeat sends one liveness ping to the coordinator and adopts a
// fresher table when the response carries one. A failed ping is dropped:
// the next beat retries, and the node serves on its last table meanwhile.
func (a *Agent) heartbeat() {
	var resp heartbeatResponse
	err := a.postJSON(*a.coordAddr.Load(), "/cluster/v1/heartbeat", heartbeatRequest{
		ID:    a.cfg.NodeID,
		Addr:  a.cfg.Advertise,
		Epoch: a.viewEpoch(),
	}, &resp)
	if err == nil && resp.Table != nil {
		a.view.Store(buildView(*resp.Table))
	}
}

// fetchModel pulls a committed model payload from the coordinator.
func (a *Agent) fetchModel(name string) (CatalogModel, error) {
	req, err := http.NewRequest(http.MethodGet,
		*a.coordAddr.Load()+"/cluster/v1/model?name="+url.QueryEscape(name), nil)
	if err != nil {
		return CatalogModel{}, err
	}
	if a.cfg.Token != "" {
		req.Header.Set("Authorization", "Bearer "+a.cfg.Token)
	}
	resp, err := a.cfg.Client.Do(req)
	if err != nil {
		return CatalogModel{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxClusterBodyBytes))
	if err != nil {
		return CatalogModel{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return CatalogModel{}, fmt.Errorf("fetching model %q: %s", name, resp.Status)
	}
	var m CatalogModel
	if err := json.Unmarshal(raw, &m); err != nil {
		return CatalogModel{}, err
	}
	return m, nil
}
