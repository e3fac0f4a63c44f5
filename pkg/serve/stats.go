package serve

import (
	"sync/atomic"

	"trusthmd/pkg/detector"
)

// ShardStats is the serving snapshot of one model shard, exposed by
// GET /stats. Counters cover the single-assess path, the client-batched
// path and the NDJSON streaming path; they are cumulative across hot
// swaps of the shard (Version tells versions apart).
type ShardStats struct {
	Model string `json:"model"`
	// Version is the shard version currently serving this name.
	Version uint64 `json:"version"`

	// Requests counts accepted /v1/assess requests (shedding excluded, see
	// Shed).
	Requests int64 `json:"requests"`
	// BatchRequests / BatchSamples count /v1/assess/batch traffic.
	BatchRequests int64 `json:"batch_requests"`
	BatchSamples  int64 `json:"batch_samples"`
	// Batches always equals Requests: every /v1/assess request is assessed
	// on its own, a batch of one.
	Batches int64 `json:"batches"`
	// Shed counts requests rejected by admission control — the shard's
	// in-flight cap was exhausted; every shed answered 503 + Retry-After.
	// Errors counts failed assessments.
	Shed   int64 `json:"shed"`
	Errors int64 `json:"errors"`
	// EarlyFlushes always reads 0: there is no coalescer to flush.
	EarlyFlushes int64 `json:"early_flushes"`

	// CacheHits / CacheMisses always read 0: /v1/assess has no result
	// cache. They, Batches and EarlyFlushes are kept only because the
	// benchmark module reads them; the next change to the benchmark
	// removes all four together with the metrics derived from them.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`

	// StreamSessions counts /v1/assess/stream connections accepted;
	// StreamSamples / StreamDecisions the raw states pushed and window
	// decisions emitted across them. Samples and decisions fold in once
	// per applied line, local or proxied, not when a session ends.
	StreamSessions  int64 `json:"stream_sessions"`
	StreamSamples   int64 `json:"stream_samples"`
	StreamDecisions int64 `json:"stream_decisions"`

	// Benign/Malware/Rejected tally served verdicts (an OnlineStats-style
	// decision count); RejectionRate is the share of decisions the detector
	// refused to trust.
	Benign        int     `json:"benign"`
	Malware       int     `json:"malware"`
	Rejected      int     `json:"rejected"`
	RejectionRate float64 `json:"rejection_rate"`

	// Inflight is the live admission gauge of the version currently
	// serving this name: single assessments running plus client-batch
	// samples reserved. Unlike the counters above it is instantaneous, and
	// it restarts on a swap because the shard version does.
	Inflight int64 `json:"inflight"`
}

// shardStats is the live counter set behind a ShardStats snapshot. Every
// counter is an atomic, hit concurrently by every caller with no lock —
// the decision tally included, as three counters.
type shardStats struct {
	requests        atomic.Int64
	batchRequests   atomic.Int64
	batchSamples    atomic.Int64
	shed            atomic.Int64
	errors          atomic.Int64
	streamSessions  atomic.Int64
	streamSamples   atomic.Int64
	streamDecisions atomic.Int64

	benign, malware, rejected atomic.Int64
}

// observe folds one served result set into the decision tally.
func (s *shardStats) observe(rs []detector.Result) {
	var benign, malware, rejected int64
	for _, r := range rs {
		switch r.Decision {
		case detector.Benign:
			benign++
		case detector.Malware:
			malware++
		default:
			rejected++
		}
	}
	s.benign.Add(benign)
	s.malware.Add(malware)
	s.rejected.Add(rejected)
}

// observeOne folds a single decision into the tally.
func (s *shardStats) observeOne(d detector.Decision) {
	switch d {
	case detector.Benign:
		s.benign.Add(1)
	case detector.Malware:
		s.malware.Add(1)
	default:
		s.rejected.Add(1)
	}
}

// snapshot freezes the counters into the wire form.
func (s *shardStats) snapshot(model string) ShardStats {
	dec := detector.OnlineStats{
		Benign:   int(s.benign.Load()),
		Malware:  int(s.malware.Load()),
		Rejected: int(s.rejected.Load()),
	}
	out := ShardStats{
		Model:           model,
		Requests:        s.requests.Load(),
		BatchRequests:   s.batchRequests.Load(),
		BatchSamples:    s.batchSamples.Load(),
		Shed:            s.shed.Load(),
		Errors:          s.errors.Load(),
		StreamSessions:  s.streamSessions.Load(),
		StreamSamples:   s.streamSamples.Load(),
		StreamDecisions: s.streamDecisions.Load(),
		Benign:          dec.Benign,
		Malware:         dec.Malware,
		Rejected:        dec.Rejected,
		RejectionRate:   dec.RejectedFraction(),
	}
	out.Batches = out.Requests
	return out
}
