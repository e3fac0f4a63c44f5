package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"trusthmd/internal/cpupin"
	"trusthmd/pkg/detector"
)

// Coalescing turns the daemon's dominant request shape — millions of
// independent single-sample assessments — into the detector's fastest
// path: concurrent /v1/assess requests queue into a bounded buffer, and a
// single flusher goroutine per replica drains them into one
// AssessBatchInto call. The flusher blocks for the first request, takes
// whatever else is already queued (up to MaxBatch) and flushes when the
// queue runs dry. Nothing is held back for company, so load sets the batch
// size: an idle replica answers a lone request in a batch of one, a busy
// one finds the backlog that built up during its previous flush and
// batches that. The detector's assess core amortises scaling+PCA across
// the batch as one matrix projection and picks the member walk from the
// batch size (a lone request takes the single-row walk), so under load the
// aggregate throughput is the batched curve, not the one-at-a-time curve,
// while results stay element-wise identical to direct Assess.

// ErrQueueFull is returned when a replica refuses a request — its bounded
// buffer is full or its in-flight cap is reached — so the daemon
// sheds load instead of queueing unboundedly.
var ErrQueueFull = errors.New("serve: assessment queue full")

// ErrClosed is returned for requests submitted after shutdown began.
var ErrClosed = errors.New("serve: server is shutting down")

// pending is one queued single-sample request. Pendings are pooled: the
// 1-slot result channel is the expensive part, and the steady state reuses
// it across requests instead of allocating one per submit.
type pending struct {
	x []float64
	// votes, when non-nil, is the caller-owned buffer the flusher copies
	// the verdict's vote distribution into (nil falls back to a fresh
	// allocation). Ownership rides with the request: once enqueued, the
	// buffer belongs to the flusher until the caller receives the outcome,
	// and a caller that gives up (context cancellation) must abandon it.
	votes []float64
	// out is buffered (capacity 1) so the flusher never blocks on a caller
	// that gave up (context cancellation, client disconnect).
	out chan outcome
}

// pendingPool recycles pending objects and their result channels. A
// pending is returned to the pool only after its outcome was received —
// one abandoned mid-flight stays out (the flusher may still write to it)
// and is collected with its channel when both sides drop it.
var pendingPool = sync.Pool{New: func() any { return &pending{out: make(chan outcome, 1)} }}

type outcome struct {
	res detector.Result
	err error
}

// coTuning bundles the per-replica coalescer knobs, resolved from Config
// by Fleet (all values final: zero means the feature is off, not "use a
// default").
type coTuning struct {
	maxBatch  int
	queueSize int
	// pinCPU, when nonzero, is 1 + the CPU the flusher's OS thread is
	// pinned to (sched_setaffinity on Linux, no-op elsewhere). 0 leaves
	// the thread to the scheduler. One-based so the zero value stays
	// unpinned.
	pinCPU int
}

// coalescer batches concurrent single-sample requests for one replica.
type coalescer struct {
	det    *detector.Detector
	tuning coTuning
	stats  *shardStats

	// inflight gauges this replica's coalesced load: requests accepted into
	// the queue and not yet settled. The group's load-aware pick reads it.
	inflight atomic.Int64

	queue chan *pending
	wg    sync.WaitGroup

	// scratch is the flusher's private assessment workspace: one arena per
	// replica, touched only from the flusher goroutine, so the projection
	// and vote buffers of a pinned replica stay resident in that core's
	// cache across batches. xbuf is the flusher-owned batch view, reused
	// every flush.
	scratch detector.BatchScratch
	xbuf    [][]float64

	mu     sync.RWMutex // guards queue close vs concurrent submit
	closed bool
}

// newCoalescer starts the replica's flusher goroutine.
func newCoalescer(det *detector.Detector, tuning coTuning, stats *shardStats) *coalescer {
	c := &coalescer{
		det:    det,
		tuning: tuning,
		stats:  stats,
		queue:  make(chan *pending, tuning.queueSize),
	}
	c.wg.Add(1)
	go c.loop()
	return c
}

// queueDepth reports how many accepted requests are waiting uncollected.
func (c *coalescer) queueDepth() int { return len(c.queue) }

// submitVotes enqueues one feature vector and blocks until its coalesced
// batch is assessed, the context is cancelled, or admission control
// rejects it. The verdict's VoteDist is built in the caller-owned votes
// buffer (growing it as needed; nil allocates). On success the returned
// Result owns the (possibly regrown) buffer; on any error after enqueue
// the buffer must be considered lost.
func (c *coalescer) submitVotes(ctx context.Context, x, votes []float64) (detector.Result, error) {
	p := pendingPool.Get().(*pending)
	p.x, p.votes = x, votes
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		p.x, p.votes = nil, nil
		pendingPool.Put(p)
		return detector.Result{}, ErrClosed
	}
	select {
	case c.queue <- p:
		c.inflight.Add(1)
		c.mu.RUnlock()
	default:
		c.mu.RUnlock()
		c.stats.shed.Add(1)
		p.x, p.votes = nil, nil
		pendingPool.Put(p)
		return detector.Result{}, ErrQueueFull
	}
	c.stats.requests.Add(1)
	select {
	case o := <-p.out:
		p.x, p.votes = nil, nil
		pendingPool.Put(p)
		return o.res, o.err
	case <-ctx.Done():
		// The flusher still assesses the sample; the buffered channel
		// absorbs the result nobody is waiting for. The pending (and the
		// caller's vote buffer with it) is abandoned, not pooled — the
		// flusher may still be writing to both.
		return detector.Result{}, ctx.Err()
	}
}

// close stops accepting work, waits for the flusher to drain everything
// already queued, and returns. Safe to call more than once.
func (c *coalescer) close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.queue)
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// loop is the replica's flusher: block for the first request, take
// everything already queued behind it up to maxBatch without blocking,
// assess, repeat. There is no hold: a batch below maxBatch means the queue
// ran dry (counted in earlyFlushes), and the requests that arrive while
// this flush runs are the next batch.
func (c *coalescer) loop() {
	defer c.wg.Done()
	if cpu := c.tuning.pinCPU - 1; cpu >= 0 {
		// Pin this flusher to its core for the goroutine's lifetime. The
		// locked thread is destroyed when the goroutine exits, so the
		// narrowed affinity mask never leaks to unrelated goroutines.
		runtime.LockOSThread()
		cpupin.PinThread(cpu)
	}
	batch := make([]*pending, 0, c.tuning.maxBatch)
	for {
		// A closed queue still yields what it holds, so close() drains:
		// ok turns false only once the queue is both closed and empty.
		p, ok := <-c.queue
		if !ok {
			return
		}
		batch = append(batch[:0], p)
	collect:
		for len(batch) < c.tuning.maxBatch {
			select {
			case pn, more := <-c.queue:
				if !more {
					break collect
				}
				batch = append(batch, pn)
			default:
				break collect
			}
		}
		if len(batch) < c.tuning.maxBatch {
			c.stats.earlyFlushes.Add(1)
		}
		c.flush(batch)
	}
}

// flush assesses one coalesced batch and fans the results back out. The
// results come out of the flusher's scratch arena — settle copies each
// vote distribution out (into the caller's buffer when one was provided)
// before the next flush reuses the arena.
func (c *coalescer) flush(batch []*pending) {
	c.stats.batches.Add(1)
	X := c.xbuf[:0]
	for _, p := range batch {
		X = append(X, p.x)
	}
	c.xbuf = X
	// The flusher is this scratch's only user, so the replica's hot
	// buffers never migrate between workers (or cores, when pinned).
	rs, err := c.det.AssessBatchInto(&c.scratch, X)
	c.settle(batch, rs, err)
	// Drop the borrowed feature-vector views so the batch's request
	// scratches are not pinned until the next flush.
	clear(c.xbuf)
}

// settle delivers per-request outcomes, updates the decision tally, and
// retires the batch from the in-flight gauge. rs is scratch-owned: each
// result's VoteDist is copied into the request's vote buffer (or a fresh
// slice for buffer-less callers) before it leaves the flusher.
func (c *coalescer) settle(batch []*pending, rs []detector.Result, err error) {
	defer c.inflight.Add(-int64(len(batch)))
	if err != nil {
		c.stats.errors.Add(int64(len(batch)))
		for _, p := range batch {
			p.out <- outcome{err: err}
		}
		return
	}
	c.stats.observe(rs)
	for i, p := range batch {
		r := rs[i]
		r.VoteDist = append(p.votes[:0], r.VoteDist...)
		p.out <- outcome{res: r}
	}
}
