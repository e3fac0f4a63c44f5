package serve

import (
	"fmt"
	"math"

	"trusthmd/pkg/detector"
)

// AssessRequest is the JSON body of POST /v1/assess: one raw feature
// vector, routed to a shard by explicit model name, by consistent-hashed
// device key, or to the default model.
type AssessRequest struct {
	// Model selects the shard explicitly and wins over Device.
	Model string `json:"model,omitempty"`
	// Device is a stable telemetry-source key (host, core, sensor id);
	// when Model is empty it is consistent-hashed onto the fleet, so one
	// device always lands on the same shard while membership is stable.
	Device string `json:"device,omitempty"`
	// Features is the raw feature vector (length must match the model's
	// input dimensionality, see /v1/models).
	Features []float64 `json:"features"`
}

// BatchRequest is the JSON body of POST /v1/assess/batch: a pre-batched
// set of feature vectors assessed in one AssessBatch call (the client
// already did the aggregation). Model and Device route like
// AssessRequest's.
type BatchRequest struct {
	Model  string      `json:"model,omitempty"`
	Device string      `json:"device,omitempty"`
	Batch  [][]float64 `json:"batch"`
}

// Decomposition is the JSON form of the aleatoric/epistemic uncertainty
// split (present only for models trained WithDecomposition).
type Decomposition struct {
	Total     float64 `json:"total"`
	Aleatoric float64 `json:"aleatoric"`
	Epistemic float64 `json:"epistemic"`
}

// AssessResponse is one trusted verdict.
type AssessResponse struct {
	// Model is the shard that served the request; Version is the shard
	// version that answered (it increments on every hot swap, so clients
	// can observe a model rollout request by request).
	Model   string `json:"model"`
	Version uint64 `json:"version"`
	// Prediction is the ensemble's plurality label (0 benign, 1 malware).
	Prediction int `json:"prediction"`
	// Entropy is the vote-entropy uncertainty in bits.
	Entropy float64 `json:"entropy"`
	// VoteDist is the normalised member-vote distribution.
	VoteDist []float64 `json:"vote_dist"`
	// Decision is "benign", "malware" or "reject" — rejected inputs should
	// be routed to an analyst, not trusted.
	Decision string `json:"decision"`
	// Decomposition splits the uncertainty when the model provides it.
	Decomposition *Decomposition `json:"decomposition,omitempty"`
}

// BatchResponse is the JSON body answering POST /v1/assess/batch.
type BatchResponse struct {
	Model   string           `json:"model"`
	Version uint64           `json:"version"`
	Results []AssessResponse `json:"results"`
}

// ModelInfo describes one loaded shard for GET /v1/models.
type ModelInfo struct {
	// Name is the routing key used in request bodies.
	Name string `json:"name"`
	// Version counts hot swaps of this name: 1 on first load, +1 per Swap.
	Version uint64 `json:"version"`
	// Default marks the shard used when requests carry neither "model"
	// nor "device".
	Default bool `json:"default,omitempty"`
	detector.Info
}

// ModelsResponse is the JSON body answering GET /v1/models. Epoch is the
// fleet generation — it increments on every load, swap and unload.
type ModelsResponse struct {
	Epoch  uint64      `json:"epoch"`
	Models []ModelInfo `json:"models"`
}

// StreamHeader is the first NDJSON line of POST /v1/assess/stream: it
// routes the session (model/device, like the assess endpoints) and
// parameterises the online loop.
type StreamHeader struct {
	Model  string `json:"model,omitempty"`
	Device string `json:"device,omitempty"`
	// Levels is the DVFS ladder size of the telemetry source; Window the
	// number of states per assessment window; Stride how many new samples
	// arrive between assessments (0 = non-overlapping windows).
	Levels int `json:"levels"`
	Window int `json:"window"`
	Stride int `json:"stride,omitempty"`
}

// StreamSample is one subsequent NDJSON line: a single state or a chunk.
type StreamSample struct {
	State  *int  `json:"state,omitempty"`
	States []int `json:"states,omitempty"`
}

// StreamResult is one NDJSON response line, emitted whenever the session's
// window produces a decision.
type StreamResult struct {
	// Seq numbers the decisions of this stream from 1; Sample is the
	// 0-based index of the pushed state that completed the window.
	Seq    int `json:"seq"`
	Sample int `json:"sample"`
	AssessResponse
}

// StreamSummary is the final NDJSON line of a stream that ended without a
// protocol error. Draining distinguishes a server-initiated cutoff
// (graceful shutdown truncated the stream — resume against a new server)
// from a clean client EOF after which every sent state was assessed.
type StreamSummary struct {
	Done      bool   `json:"done"`
	Draining  bool   `json:"draining,omitempty"`
	Model     string `json:"model"`
	Version   uint64 `json:"version"`
	Samples   int    `json:"samples"`
	Decisions int    `json:"decisions"`
	CacheHits int    `json:"cache_hits"`
	Benign    int    `json:"benign"`
	Malware   int    `json:"malware"`
	Rejected  int    `json:"rejected"`
}

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// toResponse converts a detector result into its wire form.
func toResponse(model string, version uint64, r detector.Result) AssessResponse {
	out := AssessResponse{
		Model:      model,
		Version:    version,
		Prediction: r.Prediction,
		Entropy:    r.Entropy,
		VoteDist:   r.VoteDist,
		Decision:   r.Decision.String(),
	}
	if r.Decomposition != nil {
		out.Decomposition = &Decomposition{
			Total:     r.Decomposition.Total,
			Aleatoric: r.Decomposition.Aleatoric,
			Epistemic: r.Decomposition.Epistemic,
		}
	}
	return out
}

// validateFeatures rejects malformed inputs before they reach the
// detector, so a caller error answers 400 instead of failing inside the
// pipeline: the vector must be non-empty, finite, and match the shard's
// trained input dimensionality. The batch path checks every row before
// any is assessed, so one bad row cannot fail the rest after the fact.
func validateFeatures(x []float64, dim int) error {
	if len(x) == 0 {
		return fmt.Errorf("features missing or empty")
	}
	if len(x) != dim {
		return fmt.Errorf("feature vector has %d values, model expects %d", len(x), dim)
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("feature %d is not finite", i)
		}
	}
	return nil
}
