package main

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"trusthmd/pkg/detector"
	"trusthmd/pkg/serve"
)

// The load generators. Each runs from the start of a warm-up to the end
// of the measured window and returns one sample per op; nothing is
// aggregated while the clock runs.

// sample is one completed op.
type sample struct {
	end      int64 // completion, ns since the measured window opened (negative: warm-up)
	lat      int64 // latency in ns: from send in a closed loop, from the due time in an open one
	late     int64 // open loop: how long after its due time the op was sent
	verdicts int32 // verified verdicts the op returned
	shed     int8  // open loop: times the fleet shed the op before it was accepted
	hot      bool  // open loop: the op re-sent a hot vector
	failed   bool  // transport error, non-200, out of retries or a verdict differing from the oracle
}

// generator is one workload's load source.
type generator interface {
	// run drives the load for warm+measure and returns every op's sample.
	run(warm, measure time.Duration) []sample
}

// opSeq hands out op ids; 0 means "untraced".
var opSeq atomic.Uint64

// newClient is the generator's single HTTP client: one transport holding
// at most conns keep-alive connections, so connections never outnumber
// the machine's cores.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

// post sends one pre-encoded body and reads the whole answer into buf,
// which is reset first and owns the returned bytes.
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer, op uint64) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if op != 0 {
		req.Header.Set(opHeader, strconv.FormatUint(op, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), err
}

// httpClosed is a closed loop over HTTP: each client sends its next
// request only once the previous answer is in and verified.
type httpClosed struct {
	st      *stack
	client  *http.Client
	tr      *tracer
	clients int
	url     string
	bodies  [][]byte
	// rowsPerOp verdicts are expected per answer: body k carries the
	// inputs want[k*rowsPerOp : (k+1)*rowsPerOp].
	rowsPerOp int
	want      []detector.Result
	next      atomic.Uint64 // walks the bodies in order, across runs
}

func (g *httpClosed) run(warm, measure time.Duration) []sample {
	per := make([][]sample, g.clients)
	start := time.Now().Add(warm)
	stop := start.Add(measure)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			out := make([]sample, 0, 1<<16)
			for time.Now().Before(stop) {
				out = append(out, g.op(&buf, start))
			}
			per[c] = out
		}(c)
	}
	wg.Wait()
	return merge(per)
}

// op performs one request. The latency clock stops when the answer has
// been read, before it is checked.
func (g *httpClosed) op(buf *bytes.Buffer, start time.Time) sample {
	k := int(g.next.Add(1)-1) % len(g.bodies)
	var id uint64
	if g.tr.enabled() {
		id = opSeq.Add(1)
	}
	t0 := time.Now()
	code, body, err := post(g.client, g.url, g.bodies[k], buf, id)
	t1 := time.Now()
	if id != 0 {
		g.tr.record(spanOp, "", id, int64(t0.Sub(g.tr.epoch)), int64(t1.Sub(g.tr.epoch)))
	}
	s := sample{end: int64(t1.Sub(start)), lat: int64(t1.Sub(t0)), failed: true}
	if err != nil || code != http.StatusOK {
		return s
	}
	want := g.want[k*g.rowsPerOp : (k+1)*g.rowsPerOp]
	matched := 0
	var n int
	if g.rowsPerOp == 1 {
		var v wireVerdict
		n = 1
		if scanAssess(body, &v) == nil && sameWire(&v, &want[0]) {
			matched = 1
		}
	} else {
		n, err = scanBatch(body, func(i int, v *wireVerdict) error {
			if i < len(want) && sameWire(v, &want[i]) {
				matched++
			}
			return nil
		})
		if err != nil {
			matched = 0
		}
	}
	atomic.AddInt64(&g.st.served, int64(g.rowsPerOp))
	s.verdicts = int32(matched)
	s.failed = matched != g.rowsPerOp || n != g.rowsPerOp
	return s
}

// openLoop sends Fleet.Assess calls on a seeded Poisson schedule, one
// goroutine per arrival, whether or not earlier ones have been answered.
// It is in-process because connections are capped at the core count and a
// capped connection pool would close the loop again.
type openLoop struct {
	st   *stack
	tr   *tracer
	rng  *rand.Rand
	rate float64
	X    [][]float64 // unique inputs followed by the hot ones
	want []detector.Result
	next int // walks the unique inputs in order, across runs
}

const (
	hotShare = 0.30
	// shedRetries bounds how often one arrival retries after a shed, with
	// a doubling pause from 1ms: the policy of cmd/hmdbench's loop.
	shedRetries = 8
)

func (g *openLoop) run(warm, measure time.Duration) []sample {
	unique := len(g.X) - hotSize
	sched := poissonSchedule(g.rng, g.rate, int64(warm+measure), unique, hotSize, hotShare, &g.next)
	out := make([]sample, len(sched))
	fleet := g.st.entry.fleet
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(len(sched))
	start := time.Now()
	// Arrivals leave at their due time. If the generator itself was held up
	// (it shares the cores, and the host may take them away), the overdue
	// ones leave through a token bucket at twice the nominal rate instead
	// of all at once: a stall of the generator must not become a burst no
	// real arrival process produced. Their latency still counts from the
	// due time, and gen.late_* reports how late they left.
	pace := pacer{rate: 2 * g.rate, burst: 256, tokens: 256}
	clock := func() time.Duration { return time.Since(start) }
	for i := range sched {
		due := time.Duration(sched[i].due)
		if now := clock(); now < due {
			time.Sleep(due - now)
		}
		pace.wait(clock)
		go func(i int, due time.Duration) {
			defer wg.Done()
			idx := sched[i].idx
			sent := time.Since(start)
			spec := serve.AssessSpec{Device: deviceKey(int(idx)), Features: g.X[idx]}
			res, err := fleet.Assess(ctx, spec)
			// A shed is backpressure, not failure: like cmd/hmdbench's loop
			// (and any client honouring Retry-After) the arrival backs off
			// and tries again, its latency still counting from the due time.
			var shed int8
			for delay := time.Millisecond; err == serve.ErrQueueFull && shed < shedRetries; shed++ {
				time.Sleep(delay)
				delay *= 2
				res, err = fleet.Assess(ctx, spec)
			}
			end := time.Since(start)
			if g.tr.enabled() {
				id := opSeq.Add(1)
				base := int64(start.Sub(g.tr.epoch))
				g.tr.record(spanOp, "", id, base+int64(due), base+int64(end))
				g.tr.record(spanLate, spanOp, id, base+int64(due), base+int64(sent))
				g.tr.record(spanAssess, spanOp, id, base+int64(sent), base+int64(end))
			}
			s := sample{end: int64(end - warm), lat: int64(end - due), late: int64(sent - due),
				shed: shed, hot: sched[i].hot, failed: true}
			if err == nil {
				atomic.AddInt64(&g.st.served, 1)
				if res.Model == modelName && res.Version == 1 && sameResult(&res.Result, &g.want[idx]) {
					s.verdicts, s.failed = 1, false
				}
			}
			out[i] = s
		}(i, due)
	}
	wg.Wait()
	return out
}

// pacer is a token bucket: rate tokens per second, at most burst saved up.
type pacer struct {
	rate, burst, tokens float64
	last                time.Duration
}

// wait takes one token, sleeping until there is one.
func (p *pacer) wait(clock func() time.Duration) {
	for {
		now := clock()
		p.tokens = math.Min(p.burst, p.tokens+p.rate*(now-p.last).Seconds())
		p.last = now
		if p.tokens >= 1 {
			p.tokens--
			return
		}
		time.Sleep(time.Duration((1 - p.tokens) / p.rate * float64(time.Second)))
	}
}

// offline scores fixed-size chunks back to back on one goroutine through
// one scratch — the experiment harness's shape, no serving layer at all.
type offline struct {
	st     *stack
	tr     *tracer
	chunks [][][]float64
	want   [][]detector.Result
	next   int
}

func (g *offline) run(warm, measure time.Duration) []sample {
	var scratch detector.BatchScratch
	out := make([]sample, 0, 1<<16)
	start := time.Now().Add(warm)
	stop := start.Add(measure)
	for time.Now().Before(stop) {
		k := g.next % len(g.chunks)
		g.next++
		t0 := time.Now()
		rs, err := g.st.det.AssessBatchInto(&scratch, g.chunks[k])
		t1 := time.Now()
		if g.tr.enabled() {
			id := opSeq.Add(1)
			a, b := int64(t0.Sub(g.tr.epoch)), int64(t1.Sub(g.tr.epoch))
			g.tr.record(spanOp, "", id, a, b)
			g.tr.record(spanBatch, spanOp, id, a, b)
		}
		s := sample{end: int64(t1.Sub(start)), lat: int64(t1.Sub(t0)), failed: true}
		if err == nil && len(rs) == len(g.want[k]) {
			for i := range rs {
				if sameResult(&rs[i], &g.want[k][i]) {
					s.verdicts++
				}
			}
			s.failed = int(s.verdicts) != len(rs)
		}
		out = append(out, s)
	}
	return out
}

// merge joins per-client samples.
func merge(per [][]sample) []sample {
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}
