package serve

import (
	"bytes"
	"crypto/subtle"
	"errors"
	"fmt"
	"net/http"
	"os"

	"trusthmd/pkg/detector"
)

// The admin surface is the hot model lifecycle over HTTP:
//
//	POST   /v1/models          {"name":..., "path":...}  load or swap from a gob file on the server
//	POST   /v1/models          {"name":..., "data":...}  load or swap from an inline base64 gob body
//	DELETE /v1/models/{name}                             unload
//
// Both mutate the fleet while traffic flows: a swap lets assessments in
// flight finish on the old detector and routes everything after it to the
// new version (see Fleet.Swap). When Config.AdminToken is set, both
// require "Authorization: Bearer <token>".

// LoadModelRequest is the JSON body of POST /v1/models. Exactly one of
// Path and Data must be set.
type LoadModelRequest struct {
	// Name is the shard to create or replace.
	Name string `json:"name"`
	// Path points to a gob-saved detector on the server's filesystem
	// (the `trusthmd -save` / detector.Save output).
	Path string `json:"path,omitempty"`
	// Data is the gob-saved detector itself, base64-encoded in JSON.
	Data []byte `json:"data,omitempty"`
}

// LoadModelResponse answers a successful POST /v1/models.
type LoadModelResponse struct {
	Name string `json:"name"`
	// Version is the shard's new version; Replaced reports whether an
	// earlier version was hot-swapped out (false: the name is new).
	Version  uint64        `json:"version"`
	Replaced bool          `json:"replaced"`
	Info     detector.Info `json:"info"`
}

// UnloadModelResponse answers a successful DELETE /v1/models/{name}.
type UnloadModelResponse struct {
	Name     string `json:"name"`
	Unloaded bool   `json:"unloaded"`
}

// checkAdmin enforces the optional bearer token on mutating endpoints.
func (s *Server) checkAdmin(w http.ResponseWriter, r *http.Request) bool {
	token := s.fleet.cfg.AdminToken
	if token == "" {
		return true
	}
	auth := r.Header.Get("Authorization")
	if subtle.ConstantTimeCompare([]byte(auth), []byte("Bearer "+token)) == 1 {
		return true
	}
	w.Header().Set("WWW-Authenticate", `Bearer realm="trusthmd admin"`)
	writeError(w, http.StatusUnauthorized, "admin endpoint requires a valid bearer token")
	return false
}

// handleLoadModel is POST /v1/models: decode a detector from a gob path or
// inline body and install it — Load for a new name, Swap (lossless under
// load) for an existing one. The fleet applies PrepareDetector on the way
// in, so the answer's info describes the detector as installed.
func (s *Server) handleLoadModel(w http.ResponseWriter, r *http.Request) {
	if !s.checkAdmin(w, r) {
		return
	}
	var req LoadModelRequest
	// Inline uploads carry a whole base64 gob model, so the admin path
	// has its own (much larger) body cap than the assessment endpoints.
	if !s.decodeJSONLimit(w, r, &req, s.fleet.cfg.MaxAdminBodyBytes) {
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, "name missing")
		return
	}
	if (req.Path == "") == (len(req.Data) == 0) {
		writeError(w, http.StatusBadRequest, "exactly one of path and data must be set")
		return
	}
	// In a cluster the load becomes a fleet-wide two-phase hot swap (stage
	// the model on every member, then commit everywhere, rolling back on
	// partial failure); the hook owns the whole exchange. Admin auth has
	// already been enforced above.
	if hook := s.clusterHook(); hook != nil && hook.HandleModelLoad(w, r, req) {
		return
	}
	var (
		det *detector.Detector
		err error
	)
	if req.Path != "" {
		det, err = loadDetectorFile(req.Path)
	} else {
		det, err = detector.Load(bytes.NewReader(req.Data))
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("model %s: %v", req.Name, err))
		return
	}
	sh, replaced, err := s.fleet.install(req.Name, det, installUpsert, "admin")
	if err != nil {
		// For an upsert the only non-shutdown failures are caller errors
		// (bad name, a detector the prepare hook refuses), not missing
		// resources.
		if errors.Is(err, ErrClosed) {
			writeResolveError(w, err)
		} else {
			writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, LoadModelResponse{
		Name:     req.Name,
		Version:  sh.version,
		Replaced: replaced,
		Info:     sh.det.Info(),
	})
}

// handleUnloadModel is DELETE /v1/models/{name}.
func (s *Server) handleUnloadModel(w http.ResponseWriter, r *http.Request, name string) {
	if !s.checkAdmin(w, r) {
		return
	}
	if err := s.fleet.Unload(name); err != nil {
		writeResolveError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, UnloadModelResponse{Name: name, Unloaded: true})
}

// loadDetectorFile opens and decodes one gob-saved detector.
func loadDetectorFile(path string) (*detector.Detector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return detector.Load(f)
}
