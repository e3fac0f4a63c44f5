package serve

import (
	"context"
	"errors"
	"net/http"
	"time"

	"trusthmd/pkg/detector"
	"trusthmd/pkg/verdictstore"
)

// AssessSpec is one assessment request against the fleet: the routing
// keys and feature vector of the HTTP assess endpoint, usable by any
// embedder with no HTTP involved.
type AssessSpec struct {
	// Model / Device route like AssessRequest's fields: explicit model
	// wins, else consistent-hash on device, else the default shard.
	Model  string
	Device string
	// Features is the raw feature vector.
	Features []float64
	// Source tags the verdict's origin in the verdict store ("assess",
	// "batch", "stream"; default "assess"). Records written before the
	// daemon's in-process ingest door was removed may also read "ingest".
	Source string
	// VoteBuf, when non-nil, is a caller-owned buffer the verdict's vote
	// distribution is built in (grown as needed) instead of a fresh
	// allocation. On success the returned Result owns the possibly-regrown
	// buffer; on error the buffer must be considered lost — the coalescer
	// may still be writing into it (see coalescer.submitVotes).
	VoteBuf []float64
}

// AssessOutcome is one served verdict with its provenance.
type AssessOutcome struct {
	// Model / Version identify the shard version that answered.
	Model   string
	Version uint64
	// Replica is the slot index of the replica that answered; Spilled
	// reports whether load-aware routing sent the request away from its
	// home replica.
	Replica int
	Spilled bool
	// Result is the trusted verdict.
	Result detector.Result
	// Cached reports whether the cross-request result cache answered.
	Cached bool
}

// enter admits one Assess call into f.calls unless the fleet is closed.
func (f *Fleet) enter() bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return false
	}
	f.calls.Add(1)
	return true
}

// routeError marks a resolve failure (unknown model, empty fleet,
// ambiguous default, closed fleet) so transports can map it onto their
// not-found/unavailable vocabulary. It renders as the inner message.
type routeError struct{ err error }

func (e *routeError) Error() string { return e.err.Error() }
func (e *routeError) Unwrap() error { return e.err }

// validationError marks a malformed feature vector — a caller error, not
// a serving failure.
type validationError struct{ err error }

func (e *validationError) Error() string { return e.err.Error() }
func (e *validationError) Unwrap() error { return e.err }

// Assess routes one feature vector to a shard and returns its verdict —
// the transport-independent core of POST /v1/assess. The full serving
// path applies: resolve (model/device/default precedence), input
// validation, the cross-request result cache, coalesced batching, and
// the lossless retry when a hot swap closes the shard mid-request. When
// a verdict store is attached, every outcome — cache hits included, they
// are served verdicts — is persisted with its latency.
func (f *Fleet) Assess(ctx context.Context, spec AssessSpec) (AssessOutcome, error) {
	if !f.enter() {
		return AssessOutcome{}, &routeError{ErrClosed}
	}
	defer f.calls.Done()
	start := time.Now()
	missCounted := false
	for attempt := 0; ; attempt++ {
		sh, spilled, err := f.resolveReplica(spec.Model, spec.Device)
		if err != nil {
			return AssessOutcome{}, &routeError{err}
		}
		if err := validateFeatures(spec.Features, sh.det.InputDim()); err != nil {
			return AssessOutcome{}, &validationError{err}
		}
		var key uint64
		if sh.cache != nil { // disabled caches pay no hashing and keep zero counters
			key = hashVec(spec.Features)
			if res, ok := sh.cache.get(key, spec.Features); ok {
				// Cross-request memo hit: same vector, same (deterministic)
				// verdict — answered without queueing or assessing.
				sh.stats.requests.Add(1)
				sh.stats.cacheHits.Add(1)
				sh.stats.observeOne(res.Decision)
				sh.served.Add(1)
				out := AssessOutcome{Model: sh.name, Version: sh.version, Replica: sh.idx, Spilled: spilled, Result: res, Cached: true}
				f.recordVerdict(spec.Device, spec.Source, sh.name, sh.version, res, spec.Features, time.Since(start))
				return out, nil
			}
			// One miss per request: a retry after losing the swap race
			// probes the replacement's fresh cache, but it is still the
			// same request.
			if !missCounted {
				sh.stats.cacheMisses.Add(1)
				missCounted = true
			}
		}
		res, err := sh.assessOne(ctx, spec.Features, spec.VoteBuf)
		switch {
		case err == nil:
			sh.cache.put(key, spec.Features, res)
			sh.served.Add(1)
			out := AssessOutcome{Model: sh.name, Version: sh.version, Replica: sh.idx, Spilled: spilled, Result: res}
			f.recordVerdict(spec.Device, spec.Source, sh.name, sh.version, res, spec.Features, time.Since(start))
			return out, nil
		case errors.Is(err, ErrClosed) && attempt < maxSwapRetries:
			// The shard was hot-swapped between resolve and submit; its
			// replacement is already serving. Re-resolve instead of failing
			// the request — this is what makes a Swap lossless under load.
			continue
		default:
			return AssessOutcome{}, err
		}
	}
}

// recordVerdict persists one served verdict when a store is attached.
// Features are kept only for rejections — they are the forensic evidence
// the retraining loop feeds back into training; accepted verdicts stay
// compact. Append failures are counted, never propagated: persistence
// must not fail serving.
func (f *Fleet) recordVerdict(device, source, model string, version uint64, res detector.Result, features []float64, lat time.Duration) {
	st := f.cfg.Verdicts
	if st == nil {
		return
	}
	if source == "" {
		source = "assess"
	}
	rec := verdictstore.Record{
		Device:        device,
		Model:         model,
		Version:       version,
		Source:        source,
		Prediction:    res.Prediction,
		Decision:      res.Decision.String(),
		Entropy:       res.Entropy,
		Votes:         append([]float64(nil), res.VoteDist...),
		LatencyMicros: lat.Microseconds(),
	}
	if res.Decision == detector.Reject && features != nil {
		rec.Features = append([]float64(nil), features...)
	}
	if _, err := st.Append(rec); err != nil {
		f.verdictAppendErrs.Add(1)
	}
}

// writeAssessError maps an Assess failure onto the HTTP wire, preserving
// the status vocabulary of the original handler: route errors follow
// writeResolveError (404, or 503 for a closed fleet), validation is 400,
// overload and shutdown shed with 503 + Retry-After, a vanished client
// gets the 503 formality, anything else is a 500.
func writeAssessError(w http.ResponseWriter, err error) {
	var route *routeError
	var invalid *validationError
	switch {
	case errors.As(err, &route):
		writeResolveError(w, route.err)
	case errors.As(err, &invalid):
		writeError(w, http.StatusBadRequest, err.Error())
	case err == ErrQueueFull:
		// The exact sentinel is the hot shed path: precomputed body, no
		// formatting — overload rejection must itself be cheap.
		w.Header()["Retry-After"] = retryAfterOne
		writeBytes(w, http.StatusServiceUnavailable, bodyQueueFull)
	case err == ErrClosed:
		w.Header()["Retry-After"] = retryAfterOne
		writeBytes(w, http.StatusServiceUnavailable, bodyClosed)
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client is gone; the status code is a formality.
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}
