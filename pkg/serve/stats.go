package serve

import (
	"sync"
	"sync/atomic"

	"trusthmd/pkg/detector"
)

// ShardStats is the serving snapshot of one model shard, exposed by
// GET /stats. Counters cover the coalesced single-assess path, the
// client-batched path and the NDJSON streaming path; they are cumulative
// across hot swaps of the shard (Version tells versions apart).
type ShardStats struct {
	Model string `json:"model"`
	// Version is the shard version currently serving this name.
	Version uint64 `json:"version"`

	// Requests counts accepted /v1/assess requests (queue-full shedding
	// excluded, see Shed).
	Requests int64 `json:"requests"`
	// BatchRequests / BatchSamples count /v1/assess/batch traffic.
	BatchRequests int64 `json:"batch_requests"`
	BatchSamples  int64 `json:"batch_samples"`
	// Batches is the number of coalesced AssessBatch flushes. MeanBatchSize
	// is Requests divided by Batches. Load sets it: 1 on an idle replica,
	// above 1 once requests arrive while a flush is running.
	Batches       int64   `json:"batches"`
	MeanBatchSize float64 `json:"mean_batch_size"`
	// Shed counts requests rejected by admission control — the replica's
	// queue was full or its in-flight cap was exhausted; every shed
	// answered 503 + Retry-After. Errors counts failed assessments.
	Shed   int64 `json:"shed"`
	Errors int64 `json:"errors"`
	// Spills counts device-keyed requests routed away from their home
	// replica to a less-loaded sibling (power-of-two-choices overflow);
	// EarlyFlushes counts coalescer batches flushed below MaxBatch because
	// the queue ran dry — with no hold, every batch that is not full.
	Spills       int64 `json:"spills"`
	EarlyFlushes int64 `json:"early_flushes"`

	// CacheHits / CacheMisses always read 0: /v1/assess has no result
	// cache. They are kept only because the benchmark module reads them;
	// the next change to the benchmark removes them together with its
	// serve.cache_hit_ratio and serve.cache_repeat_capture metrics.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`

	// StreamSessions counts /v1/assess/stream connections accepted;
	// StreamSamples / StreamDecisions the raw states pushed and window
	// decisions emitted across them; StreamCacheHits the windows served
	// from the sessions' window memo (OnlineStats.CacheHits).
	// Samples/decisions/memo-hit counters fold in when a session ends.
	StreamSessions  int64 `json:"stream_sessions"`
	StreamSamples   int64 `json:"stream_samples"`
	StreamDecisions int64 `json:"stream_decisions"`
	StreamCacheHits int64 `json:"stream_cache_hits"`

	// Benign/Malware/Rejected tally served verdicts (an OnlineStats-style
	// decision count); RejectionRate is the share of decisions the detector
	// refused to trust.
	Benign        int     `json:"benign"`
	Malware       int     `json:"malware"`
	Rejected      int     `json:"rejected"`
	RejectionRate float64 `json:"rejection_rate"`

	// Replicas holds the live per-replica gauges of the group currently
	// serving this name, indexed by replica slot. Unlike the counters
	// above these are instantaneous, and they restart on a swap because
	// the replicas themselves do.
	Replicas []ReplicaStats `json:"replicas"`
}

// ReplicaStats is the live gauge set of one replica in a group, read
// under the fleet's registry lock so the whole /stats snapshot describes
// one fleet generation.
type ReplicaStats struct {
	// Replica is the slot index (0-based) — the home target of the
	// within-group consistent-hash routing.
	Replica int `json:"replica"`
	// QueueDepth is the number of accepted requests waiting uncollected in
	// this replica's coalescer queue.
	QueueDepth int `json:"queue_depth"`
	// Inflight is the replica's admission gauge: coalesced requests
	// accepted and not yet settled plus client-batch samples assessing.
	Inflight int64 `json:"inflight"`
	// Served counts requests this replica answered — compare across slots
	// to read the spillover share.
	Served int64 `json:"served"`
}

// shardStats is the live counter set behind a ShardStats snapshot. The
// request-path counters are atomics (hit concurrently by every handler);
// the decision tally reuses detector.OnlineStats under a mutex, updated
// once per flush rather than once per request.
type shardStats struct {
	requests        atomic.Int64
	batchRequests   atomic.Int64
	batchSamples    atomic.Int64
	batches         atomic.Int64
	shed            atomic.Int64
	spills          atomic.Int64
	earlyFlushes    atomic.Int64
	errors          atomic.Int64
	streamSessions  atomic.Int64
	streamSamples   atomic.Int64
	streamDecisions atomic.Int64
	streamCacheHits atomic.Int64

	mu        sync.Mutex
	decisions detector.OnlineStats
}

// observe folds one served result set into the decision tally.
func (s *shardStats) observe(rs []detector.Result) {
	s.mu.Lock()
	for _, r := range rs {
		s.decisions.Observe(r.Decision)
	}
	s.mu.Unlock()
}

// observeOne folds a single stream decision into the tally.
func (s *shardStats) observeOne(d detector.Decision) {
	s.mu.Lock()
	s.decisions.Observe(d)
	s.mu.Unlock()
}

// snapshot freezes the counters into the wire form.
func (s *shardStats) snapshot(model string) ShardStats {
	s.mu.Lock()
	dec := s.decisions
	s.mu.Unlock()
	out := ShardStats{
		Model:           model,
		Requests:        s.requests.Load(),
		BatchRequests:   s.batchRequests.Load(),
		BatchSamples:    s.batchSamples.Load(),
		Batches:         s.batches.Load(),
		Shed:            s.shed.Load(),
		Spills:          s.spills.Load(),
		EarlyFlushes:    s.earlyFlushes.Load(),
		Errors:          s.errors.Load(),
		StreamSessions:  s.streamSessions.Load(),
		StreamSamples:   s.streamSamples.Load(),
		StreamDecisions: s.streamDecisions.Load(),
		StreamCacheHits: s.streamCacheHits.Load(),
		Benign:          dec.Benign,
		Malware:         dec.Malware,
		Rejected:        dec.Rejected,
	}
	if out.Batches > 0 {
		out.MeanBatchSize = float64(out.Requests) / float64(out.Batches)
	}
	out.RejectionRate = dec.RejectedFraction()
	return out
}
