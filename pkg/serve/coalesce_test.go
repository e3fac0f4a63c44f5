package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestCoalescerFlushOnBatchSize: with an effectively infinite MaxWait, the
// only way n == maxBatch concurrent submits can all return is a size-
// triggered flush into one batch.
func TestCoalescerFlushOnBatchSize(t *testing.T) {
	d, X := testDetector(t)
	st := &shardStats{}
	c := newCoalescer(d, coTuning{maxBatch: 4, queueSize: 64, maxWait: time.Hour}, st)
	defer c.close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.submitVotes(context.Background(), X[i], nil); err != nil {
				t.Error(err)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("size-triggered flush never happened")
	}
	if got := st.batches.Load(); got != 1 {
		t.Fatalf("expected exactly 1 coalesced batch, got %d", got)
	}
	if got := st.requests.Load(); got != 4 {
		t.Fatalf("requests %d, want 4", got)
	}
}

// TestCoalescerFlushOnLatency: a lone request must not wait for a full
// batch — the MaxWait timer flushes it.
func TestCoalescerFlushOnLatency(t *testing.T) {
	d, X := testDetector(t)
	st := &shardStats{}
	c := newCoalescer(d, coTuning{maxBatch: 1 << 20, queueSize: 64, maxWait: 5 * time.Millisecond}, st)
	defer c.close()

	res, err := c.submitVotes(context.Background(), X[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.Assess(X[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Prediction != want.Prediction || res.Entropy != want.Entropy {
		t.Fatalf("lone coalesced result diverged: %+v vs %+v", res, want)
	}
	if st.batches.Load() != 1 {
		t.Fatalf("batches %d, want 1", st.batches.Load())
	}
}

// TestCoalescerQueueFull exercises the shed path against a stalled flusher
// (the coalescer here has no loop goroutine, so the queue never drains).
func TestCoalescerQueueFull(t *testing.T) {
	d, X := testDetector(t)
	st := &shardStats{}
	c := &coalescer{det: d, tuning: coTuning{maxBatch: 8, queueSize: 1, maxWait: time.Hour}, stats: st, queue: make(chan *pending, 1)}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// Enqueues, then gives up immediately on the dead context — the sample
	// stays in the queue.
	if _, err := c.submitVotes(cancelled, X[0], nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := c.submitVotes(context.Background(), X[1], nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if st.shed.Load() != 1 {
		t.Fatalf("shed %d, want 1", st.shed.Load())
	}
}

// TestCoalescerShedDepth: the queue-depth watermark sheds BEFORE the hard
// channel bound — admission control answers fast instead of maximising
// queueing latency. Like TestCoalescerQueueFull this uses a coalescer with
// no flusher, so queued samples stay queued.
func TestCoalescerShedDepth(t *testing.T) {
	d, X := testDetector(t)
	st := &shardStats{}
	c := &coalescer{
		det:    d,
		tuning: coTuning{maxBatch: 8, queueSize: 8, maxWait: time.Hour, shedDepth: 1},
		stats:  st,
		queue:  make(chan *pending, 8),
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.submitVotes(cancelled, X[0], nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// One sample waiting == the watermark: the channel has 7 free slots,
	// but admission control refuses anyway.
	if _, err := c.submitVotes(context.Background(), X[1], nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull at the shed watermark", err)
	}
	if st.shed.Load() != 1 {
		t.Fatalf("shed %d, want 1", st.shed.Load())
	}
	if got := c.inflight.Load(); got != 1 {
		t.Fatalf("inflight gauge %d, want 1 (shed must not count)", got)
	}
}

// TestCoalescerEarlyFlush: with MaxWait effectively infinite, a backlog at
// the flush watermark must flush immediately — the only way the submits
// below can return is the latency-aware early flush. The flusher is
// started only after the backlog exists so the race is deterministic.
func TestCoalescerEarlyFlush(t *testing.T) {
	d, X := testDetector(t)
	st := &shardStats{}
	c := &coalescer{
		det:    d,
		tuning: coTuning{maxBatch: 1 << 20, queueSize: 64, maxWait: time.Hour, flushDepth: 2},
		stats:  st,
		queue:  make(chan *pending, 64),
	}

	const n = 4
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.submitVotes(context.Background(), X[i], nil); err != nil {
				t.Error(err)
			}
		}(i)
	}
	// Wait until all n are queued, then start the flusher against the
	// ready-made backlog.
	deadline := time.Now().Add(5 * time.Second)
	for len(c.queue) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d submits queued", len(c.queue), n)
		}
		time.Sleep(time.Millisecond)
	}
	c.wg.Add(1)
	go c.loop()
	defer c.close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("backlog at flushDepth never early-flushed (MaxWait is an hour)")
	}
	if st.earlyFlushes.Load() == 0 {
		t.Fatalf("early flush not counted: %d batches, %d early", st.batches.Load(), st.earlyFlushes.Load())
	}
	if got := st.requests.Load(); got != n {
		t.Fatalf("requests %d, want %d", got, n)
	}
	if got := c.inflight.Load(); got != 0 {
		t.Fatalf("inflight gauge %d after settle, want 0", got)
	}
}

func TestCoalescerClosedRejects(t *testing.T) {
	d, X := testDetector(t)
	st := &shardStats{}
	c := newCoalescer(d, coTuning{maxBatch: 8, queueSize: 8, maxWait: time.Millisecond}, st)
	c.close()
	c.close() // idempotent
	if _, err := c.submitVotes(context.Background(), X[0], nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestCoalescerCloseDrains: requests already queued at shutdown are still
// assessed, not dropped.
func TestCoalescerCloseDrains(t *testing.T) {
	d, X := testDetector(t)
	st := &shardStats{}
	c := newCoalescer(d, coTuning{maxBatch: 16, queueSize: 64, maxWait: 50 * time.Millisecond}, st)

	const n = 8
	results := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = c.submitVotes(context.Background(), X[i], nil)
		}(i)
	}
	// Give the submits a moment to enqueue, then shut down mid-wait.
	time.Sleep(5 * time.Millisecond)
	c.close()
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Fatalf("queued request %d dropped at shutdown: %v", i, err)
		}
	}
}

// TestCoalescerPropagatesAssessError: a failing batch fails every caller
// in it with the error, and counts it.
func TestCoalescerPropagatesAssessError(t *testing.T) {
	d, _ := testDetector(t)
	st := &shardStats{}
	c := newCoalescer(d, coTuning{maxBatch: 8, queueSize: 8, maxWait: time.Millisecond}, st)
	defer c.close()
	// Wrong dimensionality reaches the pipeline only because this bypasses
	// the server's validation.
	if _, err := c.submitVotes(context.Background(), []float64{1, 2, 3}, nil); err == nil {
		t.Fatal("expected projection error")
	}
	if st.errors.Load() == 0 {
		t.Fatal("error not counted")
	}
}

// BenchmarkCoalescer measures aggregate throughput of concurrent
// single-sample submits through the coalescer (the daemon's hot path).
// Compare with BenchmarkUncoalescedAssess: the coalescer turns the same
// request stream into batched projections plus pooled member inference.
func BenchmarkCoalescer(b *testing.B) {
	d, X := testDetector(b)
	st := &shardStats{}
	c := newCoalescer(d, coTuning{maxBatch: 32, queueSize: 4096, maxWait: 2 * time.Millisecond}, st)
	defer c.close()
	b.ReportAllocs()
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := c.submitVotes(context.Background(), X[i%len(X)], nil); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.StopTimer()
	if b.N > 1 && st.batches.Load() > 0 {
		b.ReportMetric(float64(st.requests.Load())/float64(st.batches.Load()), "reqs/batch")
	}
}

// BenchmarkUncoalescedAssess is the baseline: the same concurrent request
// stream served by direct per-request Assess calls.
func BenchmarkUncoalescedAssess(b *testing.B) {
	d, X := testDetector(b)
	b.ReportAllocs()
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := d.Assess(X[i%len(X)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// detectorInfoSanity guards the Info surface the daemon's /v1/models
// endpoint depends on.
func TestDetectorInfoSurface(t *testing.T) {
	d, X := testDetector(t)
	info := d.Info()
	if info.Model != "rf" || info.Members != 11 || info.InputDim != len(X[0]) {
		t.Fatalf("info: %+v", info)
	}
	if info.Diversity != "bootstrap" {
		t.Fatalf("diversity: %q", info.Diversity)
	}
}
