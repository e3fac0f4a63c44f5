package serve

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"trusthmd/internal/testgate"
	"trusthmd/pkg/detector"
)

// submitEach starts one submitVotes per row on c. The returned wait blocks
// until every submit was answered, and fails the test unless each verdict
// is element-wise identical to d.Assess on its row.
func submitEach(t *testing.T, c *coalescer, d *detector.Detector, rows [][]float64) (wait func()) {
	t.Helper()
	got := make([]detector.Result, len(rows))
	errs := make([]error, len(rows))
	var wg sync.WaitGroup
	for i := range rows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = c.submitVotes(context.Background(), rows[i], nil)
		}()
	}
	return func() {
		t.Helper()
		wg.Wait()
		for i, x := range rows {
			if errs[i] != nil {
				t.Fatalf("request %d: %v", i, errs[i])
			}
			want, err := d.Assess(x)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("request %d diverged from Assess:\n got %+v\nwant %+v", i, got[i], want)
			}
		}
	}
}

// backlog returns a coalescer over the gated detector whose flusher has not
// started, with one submit per row already queued — the queue a flusher
// finds when it comes back from a flush that took that long. The caller
// starts the flusher with startLoop.
func backlog(t *testing.T, maxBatch int, rows [][]float64) (c *coalescer, wait func()) {
	t.Helper()
	d, _ := gatedDetector(t)
	c = &coalescer{
		det:    d,
		tuning: coTuning{maxBatch: maxBatch, queueSize: 64},
		stats:  &shardStats{},
		queue:  make(chan *pending, 64),
	}
	wait = submitEach(t, c, d, rows)
	waitFor(t, "every submit to queue", func() bool { return len(c.queue) == len(rows) })
	return c, wait
}

func startLoop(c *coalescer) {
	c.wg.Add(1)
	go c.loop()
}

// TestCoalescerFlushOnBatchSize: a backlog deeper than maxBatch leaves in
// two batches, a full one and then the rest. The gate stops the flusher
// inside its first flush, where the queue shows what it left behind.
func TestCoalescerFlushOnBatchSize(t *testing.T) {
	const maxBatch, k = 4, 3
	_, X := gatedDetector(t)
	c, wait := backlog(t, maxBatch, X[:maxBatch+k])
	release := testgate.Hold(t)
	startLoop(c)
	defer c.close()
	defer release()

	waitFor(t, "the first batch to be taken", func() bool { return len(c.queue) <= k })
	if got := len(c.queue); got != k {
		t.Fatalf("first batch left %d queued, want %d (a full batch of %d taken)", got, k, maxBatch)
	}
	if got := c.inflight.Load(); got != maxBatch+k {
		t.Fatalf("inflight gauge %d mid-flush, want %d", got, maxBatch+k)
	}
	release()
	wait()
	if b, e := c.stats.batches.Load(), c.stats.earlyFlushes.Load(); b != 2 || e != 1 {
		t.Fatalf("%d batches, %d below maxBatch; want 2 and 1 (full, then %d)", b, e, k)
	}
	if got := c.stats.requests.Load(); got != maxBatch+k {
		t.Fatalf("requests %d, want %d", got, maxBatch+k)
	}
}

// TestCoalescerFlushOnLatency: a lone request is not held for company. The
// flusher answers it in a batch of one as soon as it finds the queue empty
// behind it — with nothing else happening, that is the only way this
// submit can return.
func TestCoalescerFlushOnLatency(t *testing.T) {
	d, X := testDetector(t)
	st := &shardStats{}
	c := newCoalescer(d, coTuning{maxBatch: 32, queueSize: 64}, st)

	submitEach(t, c, d, X[:1])()
	c.close() // the flusher retires a batch from the gauge after answering it
	if b, e := st.batches.Load(), st.earlyFlushes.Load(); b != 1 || e != 1 {
		t.Fatalf("%d batches, %d below maxBatch; want 1 and 1", b, e)
	}
	if got := c.inflight.Load(); got != 0 {
		t.Fatalf("inflight gauge %d after settle, want 0", got)
	}
}

// TestCoalescerQueueFull exercises the shed path against a stalled flusher
// (the coalescer here has no loop goroutine, so the queue never drains).
func TestCoalescerQueueFull(t *testing.T) {
	d, X := testDetector(t)
	st := &shardStats{}
	c := &coalescer{det: d, tuning: coTuning{maxBatch: 8, queueSize: 1}, stats: st, queue: make(chan *pending, 1)}

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
	if got := c.inflight.Load(); got != 1 {
		t.Fatalf("inflight gauge %d, want 1 (shed must not count)", got)
	}
}

// TestCoalescerEarlyFlush: the flusher takes what is queued and goes. A
// backlog of k <= maxBatch comes back as one batch, counted as flushed
// below maxBatch only when it was.
func TestCoalescerEarlyFlush(t *testing.T) {
	const maxBatch = 8
	_, X := gatedDetector(t)
	for _, k := range []int{2, 5, maxBatch} {
		c, wait := backlog(t, maxBatch, X[:k])
		startLoop(c)
		wait()
		c.close()

		wantEarly := int64(1)
		if k == maxBatch {
			wantEarly = 0
		}
		if b, e := c.stats.batches.Load(), c.stats.earlyFlushes.Load(); b != 1 || e != wantEarly {
			t.Fatalf("k=%d: %d batches, %d below maxBatch; want 1 and %d", k, b, e, wantEarly)
		}
		if got := c.stats.requests.Load(); got != int64(k) {
			t.Fatalf("k=%d: requests %d, want %d", k, got, k)
		}
		if got := c.inflight.Load(); got != 0 {
			t.Fatalf("k=%d: inflight gauge %d after settle, want 0", k, got)
		}
	}
}

func TestCoalescerClosedRejects(t *testing.T) {
	d, X := testDetector(t)
	st := &shardStats{}
	c := newCoalescer(d, coTuning{maxBatch: 8, queueSize: 8}, st)
	c.close()
	c.close() // idempotent
	if _, err := c.submitVotes(context.Background(), X[0], nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestCoalescerCloseDrains: requests already queued at shutdown are still
// assessed, not dropped. close() lands while the flusher is held inside its
// first batch with two more batches' worth queued behind it.
func TestCoalescerCloseDrains(t *testing.T) {
	const maxBatch, n = 4, 10
	_, X := gatedDetector(t)
	c, wait := backlog(t, maxBatch, X[:n])
	release := testgate.Hold(t)
	startLoop(c)

	closed := make(chan struct{})
	go func() {
		c.close()
		close(closed)
	}()
	waitFor(t, "close to shut the queue", func() bool {
		c.mu.RLock()
		defer c.mu.RUnlock()
		return c.closed
	})
	if _, err := c.submitVotes(context.Background(), X[0], nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: err = %v, want ErrClosed", err)
	}
	release()
	wait()
	<-closed
	if b, e := c.stats.batches.Load(), c.stats.earlyFlushes.Load(); b != 3 || e != 1 {
		t.Fatalf("%d batches, %d below maxBatch; want 3 and 1 (4+4+2)", b, e)
	}
}

// TestCoalescerPropagatesAssessError: a failing batch fails every caller
// in it with the error, and counts it.
func TestCoalescerPropagatesAssessError(t *testing.T) {
	d, _ := testDetector(t)
	st := &shardStats{}
	c := newCoalescer(d, coTuning{maxBatch: 8, queueSize: 8}, st)
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
	c := newCoalescer(d, coTuning{maxBatch: 32, queueSize: 4096}, st)
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
