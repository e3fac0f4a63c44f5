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
	// VoteBuf, when non-nil, is a caller-owned buffer the verdict's vote
	// distribution is copied into (grown as needed) instead of a fresh
	// allocation. On success the returned Result owns the possibly-regrown
	// buffer; on error the buffer is untouched and stays the caller's.
	VoteBuf []float64
}

// AssessOutcome is one served verdict with its provenance.
type AssessOutcome struct {
	// Model / Version identify the shard version that answered.
	Model   string
	Version uint64
	// Result is the trusted verdict.
	Result detector.Result
}

// enter admits one call into f.calls unless the fleet is closed: every
// path that assesses and stores (Assess, a client batch, a stream push)
// runs between enter and f.calls.Done.
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
// validation, admission against the shard's in-flight cap, and the
// assessment itself, run on the caller's goroutine. A hot swap racing the
// call cannot fail it: the call finishes on the version it resolved. When
// a verdict store is attached, every outcome is persisted with its
// latency. The assessment takes microseconds and is not interruptible, so
// ctx is not consulted; it is part of the signature for transports that
// carry one.
func (f *Fleet) Assess(ctx context.Context, spec AssessSpec) (AssessOutcome, error) {
	if !f.enter() {
		return AssessOutcome{}, &routeError{ErrClosed}
	}
	defer f.calls.Done()
	start := time.Now()
	sh, err := f.resolve(spec.Model, spec.Device)
	if err != nil {
		return AssessOutcome{}, &routeError{err}
	}
	if err := validateFeatures(spec.Features, sh.det.InputDim()); err != nil {
		return AssessOutcome{}, &validationError{err}
	}
	res, err := sh.assessOne(spec.Features, spec.VoteBuf)
	if err != nil {
		return AssessOutcome{}, err
	}
	if st := f.cfg.Verdicts; st != nil {
		rec := verdictRecord(spec.Device, "assess", sh, &res, spec.Features, time.Since(start))
		if _, err := st.Append(rec); err != nil {
			f.verdictAppendErrs.Add(1)
		}
	}
	return AssessOutcome{Model: sh.name, Version: sh.version, Result: res}, nil
}

// verdictRecord is the one place a served verdict becomes a store record,
// whichever path served it (source "assess", "batch" or "stream"). Features
// are kept only for rejections — they are the forensic evidence the
// retraining loop feeds back into training; accepted verdicts stay
// compact. The record aliases res.VoteDist and features, which is safe
// because both store doors encode a record before they return.
func verdictRecord(device, source string, sh *shard, res *detector.Result, features []float64, lat time.Duration) verdictstore.Record {
	rec := verdictstore.Record{
		Device:        device,
		Model:         sh.name,
		Version:       sh.version,
		Source:        source,
		Prediction:    res.Prediction,
		Decision:      res.Decision.String(),
		Entropy:       res.Entropy,
		Votes:         res.VoteDist,
		LatencyMicros: lat.Microseconds(),
	}
	if res.Decision == detector.Reject {
		rec.Features = features
	}
	return rec
}

// storeGroup persists one group of served verdicts — a client batch, a
// stream line — with one AppendBatch. Here and in Assess, append failures
// are counted, never propagated: persistence must not fail serving.
func (f *Fleet) storeGroup(recs []verdictstore.Record) {
	if stored, _ := f.cfg.Verdicts.AppendBatch(recs); stored < len(recs) {
		f.verdictAppendErrs.Add(int64(len(recs) - stored))
	}
}

// writeAssessError maps an Assess failure onto the HTTP wire, preserving
// the status vocabulary of the original handler: route errors follow
// writeResolveError (404, or 503 for a closed fleet), validation is 400,
// overload sheds with 503 + Retry-After, anything else is a 500.
func writeAssessError(w http.ResponseWriter, err error) {
	var route *routeError
	var invalid *validationError
	switch {
	case errors.As(err, &route):
		writeResolveError(w, route.err)
	case errors.As(err, &invalid):
		writeError(w, http.StatusBadRequest, err.Error())
	case err == ErrQueueFull:
		// The hot shed path: precomputed body, no formatting — overload
		// rejection must itself be cheap.
		w.Header()["Retry-After"] = retryAfterOne
		writeBytes(w, http.StatusServiceUnavailable, bodyQueueFull)
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}
