package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"trusthmd/internal/hmd"
	"trusthmd/internal/ml/tree"
	"trusthmd/pkg/cluster/ring"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/linalg"
	"trusthmd/pkg/linalg/kernel"
	"trusthmd/pkg/model"
	"trusthmd/pkg/serve"
	"trusthmd/pkg/verdictstore"
)

// Per-layer metrics. A layer is measured from outside in one of two
// ways: live, as a span recorded around a call the request really made
// (handler, cluster hook, forward hop, Fleet.Assess in the open loop), or
// by probe, timing the layer's public entry point directly on the
// workload's own inputs (detector, pipeline stages, store, ring, kernel).
// What lies between two measured layers is named by subtraction and said
// to be so in README.md.

// timeBlocks calls f back to back for about budget and returns the mean
// nanoseconds per call of each block of per calls. Blocks keep clock reads
// out of calls that take tens of nanoseconds.
func timeBlocks(budget time.Duration, per int, f func(i int)) []float64 {
	var out []float64
	i := 0
	for stop := time.Now().Add(budget); time.Now().Before(stop); {
		t := time.Now()
		for j := 0; j < per; j++ {
			f(i)
			i++
		}
		out = append(out, float64(time.Since(t))/float64(per))
	}
	return out
}

// rfMember mirrors pkg/detector's built-in "rf" family, which the
// registry does not export: the twin pipeline must be trained from the
// same hmd.Config as the detector to be bit-equal to it.
func rfMember(seed int64) model.Classifier {
	return tree.New(tree.Config{MaxFeatures: -1, Seed: seed})
}

// twin is an hmd.Pipeline trained exactly like the detector under test,
// driven stage by stage so each stage of batched scoring can be timed on
// its own.
type twin struct {
	p             *hmd.Pipeline
	work, reduced *linalg.Matrix
	zt            *linalg.Matrix
	counts, votes []int
	input, dists  []float64
	out           []hmd.Assessment
}

func newTwin(st *stack) (*twin, error) {
	p, err := hmd.Train(st.splits.Train, hmd.Config{NewMember: rfMember, M: members, Seed: trainSeed})
	if err != nil {
		return nil, err
	}
	return &twin{p: p, work: linalg.New(0, 0), reduced: linalg.New(0, 0), zt: linalg.New(0, 0)}, nil
}

// stageTimes is one batch's time in each stage, in nanoseconds.
type stageTimes struct{ project, transpose, votes, summarize float64 }

// score runs one batch through the four stages Detector.AssessBatchInto
// runs, in its order, and returns the assessments (valid until the next
// call).
func (t *twin) score(X [][]float64) (stageTimes, []hmd.Assessment, error) {
	var st stageTimes
	n, k := len(X), t.p.Classes()

	t0 := time.Now()
	Z, err := t.p.ProjectRowsScratch(X, t.work, t.reduced)
	if err != nil {
		return st, nil, err
	}
	t1 := time.Now()
	var ZT *linalg.Matrix
	if t.p.WantsCols() {
		t.zt.ResizeUnset(Z.Cols(), Z.Rows())
		if err := Z.TInto(t.zt); err != nil {
			return st, nil, err
		}
		ZT = t.zt
	}
	t2 := time.Now()
	if cap(t.counts) < n*k {
		t.counts, t.dists = make([]int, n*k), make([]float64, n*k)
		t.votes, t.out = make([]int, n), make([]hmd.Assessment, n)
		t.input = make([]float64, t.p.MemberScratchDim())
	}
	counts := t.counts[:n*k]
	clear(counts)
	if err := t.p.AccumulateVotes(Z, ZT, counts, 0, t.p.Members(), t.votes[:n], t.input); err != nil {
		return st, nil, err
	}
	t3 := time.Now()
	for i := 0; i < n; i++ {
		if t.out[i], err = t.p.SummarizeCounts(counts[i*k:(i+1)*k], t.dists[i*k:(i+1)*k]); err != nil {
			return st, nil, err
		}
	}
	t4 := time.Now()
	st = stageTimes{float64(t1.Sub(t0)), float64(t2.Sub(t1)), float64(t3.Sub(t2)), float64(t4.Sub(t3))}
	return st, t.out[:n], nil
}

// sameAssessment reports whether the twin and the detector agree to the
// bit on one row.
func sameAssessment(a *hmd.Assessment, r *detector.Result) bool {
	if a.Prediction != r.Prediction || math.Float64bits(a.Entropy) != math.Float64bits(r.Entropy) ||
		len(a.VoteDist) != len(r.VoteDist) {
		return false
	}
	for i, v := range a.VoteDist {
		if math.Float64bits(v) != math.Float64bits(r.VoteDist[i]) {
			return false
		}
	}
	return true
}

// procUsage is the process's cumulative cost so far.
type procUsage struct {
	cpu     time.Duration
	mallocs uint64
	gcPause time.Duration
	rssMB   float64
}

func usage() procUsage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procUsage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcPause: time.Duration(ms.PauseTotalNs),
		rssMB:   float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
}

// shardCounters sums the serving counters of the benchmark's shard over
// every node of the stack.
func shardCounters(st *stack) serve.ShardStats {
	var sum serve.ShardStats
	for _, n := range st.nodes {
		for _, s := range n.fleet.Stats() {
			sum.Requests += s.Requests
			sum.Batches += s.Batches
			sum.EarlyFlushes += s.EarlyFlushes
			sum.Shed += s.Shed
			sum.CacheHits += s.CacheHits
			sum.CacheMisses += s.CacheMisses
		}
	}
	return sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Shares of the measured time a traced run gives its two load windows;
// the probes take a fixed budget each on top.
const (
	untracedShare = 0.4
	tracedShare   = 0.4
)

// runTraced produces every per-layer metric of one workload: an untraced
// window (counters, process cost, the baseline for tracing overhead), the
// same load again with spans on, then the direct-call probes.
func runTraced(w workload, seed int64, pl plan, dir, spanPath string, m runMeta) (*outcome, error) {
	tr := newTracer()
	ss, err := open(w, seed, pl, 1, dir, tr)
	if err != nil {
		return nil, err
	}
	defer ss.close()
	st, g := ss.st, ss.g

	// Untraced window.
	span := time.Duration(float64(pl.measure) * untracedShare)
	fwd0, c0, u0 := st.forwards(), shardCounters(st), usage()
	plain := g.run(pl.warm, span)
	c1, u1 := shardCounters(st), usage()
	fwdPlain := st.forwards() - fwd0
	base := reduce(plain, span)
	hot := 0
	for _, s := range plain {
		if s.hot {
			hot++
		}
	}

	// Traced window.
	span = time.Duration(float64(pl.measure) * tracedShare)
	tr.on.Store(true)
	tracedSamples := g.run(pl.warm/4, span)
	tr.on.Store(false)
	spans := tr.take()
	traced := reduce(tracedSamples, span)
	ops := int64(len(plain) + len(tracedSamples))

	o := newOutcome(w.name, base)
	o.Traced = true
	o.Attempted += traced.attempted
	o.Failed += traced.failed

	pr, err := probe(st, ss.e, pl.probe, filepath.Join(dir, "probe-store"))
	if err != nil {
		return nil, fmt.Errorf("%s: probes: %w", w.name, err)
	}
	if w.probeFleet {
		pr.fleetAssess = probeFleetAssess(st, ss.e, 2*pl.probe)
	}
	lv := liveTimes(spans)
	bd := w.breakdown(lv, pr)
	sum := 0.0
	for _, l := range bd.layers {
		sum += l
	}

	reqs := float64(c1.Requests - c0.Requests)
	batches := float64(c1.Batches - c0.Batches)
	hits, misses := float64(c1.CacheHits-c0.CacheHits), float64(c1.CacheMisses-c0.CacheMisses)
	shed := float64(c1.Shed - c0.Shed)

	o.set("http.transport_us", "us", bd.transport)
	o.set("serve.handler_us", "us", lv.handler)
	o.set("serve.codec_route_us", "us", bd.codecRoute)
	o.set("serve.fleet_assess_us", "us", bd.fleetAssess)
	o.set("serve.queue_wait_us", "us", bd.queueWait)
	o.set("serve.mean_batch_size", "count", ratio(reqs-hits, batches))
	o.set("serve.early_flush_share", "ratio", ratio(float64(c1.EarlyFlushes-c0.EarlyFlushes), batches))
	o.set("serve.shed_share", "ratio", ratio(shed, reqs+shed))
	o.set("serve.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	o.set("serve.cache_repeat_capture", "ratio", ratio(hits, float64(hot)))
	o.set("cluster.resolve_us", "us", lv.resolve)
	o.set("cluster.forward_us", "us", lv.forwardSelf)
	o.set("cluster.forward_ratio", "ratio", ratio(float64(fwdPlain), float64(len(plain))))
	o.set("ring.lookup_ns", "ns", pr.ringLookup)
	o.set("detector.assess_us", "us", pr.assess)
	o.set("detector.batch_row_ns", "ns", pr.batchRow)
	o.set("hmd.project_row_ns", "ns", pr.stages.project)
	o.set("linalg.transpose_row_ns", "ns", pr.stages.transpose)
	o.set("hmd.votes_row_ns", "ns", pr.stages.votes)
	o.set("hmd.summarize_row_ns", "ns", pr.stages.summarize)
	o.set("kernel.treemask32_ns", "ns", pr.treeMask)
	o.set("detector.train_s", "s", st.trainTime.Seconds())
	o.set("detector.load_s", "s", st.loadTime.Seconds())
	o.set("verdictstore.append_us", "us", pr.appendUS)
	o.set("verdictstore.bytes_per_record", "B", pr.bytesPerRecord)
	o.set("proc.cpu_us_per_verdict", "us", ratio(float64((u1.cpu-u0.cpu).Microseconds()), verdictsIn(plain)))
	o.set("proc.allocs_per_verdict", "count", ratio(float64(u1.mallocs-u0.mallocs), verdictsIn(plain)))
	o.set("proc.gc_pause_ms", "ms", float64((u1.gcPause-u0.gcPause).Microseconds())/1e3)
	o.set("client.latency_p90_us", "us", base.calm.p90)
	o.set("client.latency_p99_us", "us", percentile(base.lat, supported(0.99, len(base.lat))))
	o.set("client.latency_max_us", "us", percentile(base.lat, 1))
	o.set("gen.late_p50_us", "us", percentile(base.late, 0.50))
	o.set("gen.late_p99_us", "us", percentile(base.late, supported(0.99, len(base.late))))
	o.set("gen.inputs_s", "s", ss.inputs.Seconds())
	o.set("trace.overhead_share", "ratio", ratio(traced.calm.p50-base.calm.p50, base.calm.p50))
	o.set("trace.unattributed_share", "ratio", math.Abs(1-ratio(sum, lv.op)))

	o.err = verify(w, st, failedIn(plain)+failedIn(tracedSamples), st.forwards()-fwd0, ops)
	if !pr.twinEqual {
		o.err = errors.Join(o.err, errors.New("twin pipeline differs from the detector"))
	}
	match := 1.0
	if st.entry != nil && st.appended() != st.served {
		match = 0
	}
	o.set("verdictstore.records_match", "ratio", match)
	o.set("proc.peak_rss_mb", "MB", usage().rssMB)
	o.Correct = o.err == nil
	o.note("untraced window: %d ops, p50 %.1f us; traced window: %d ops, p50 %.1f us, %d spans",
		base.attempted, base.calm.p50, traced.attempted, traced.calm.p50, len(spans))
	o.note("layer medians sum to %.1f us of a %.1f us median op", sum, lv.op)
	o.checkGenerator(base, plain)
	if spanPath != "" {
		if err := writeSpans(spanPath, m, w.name, spans); err != nil {
			return nil, err
		}
		o.note("spans written to %s", spanPath)
	}
	return o, nil
}

// live is what the spans of a traced window say: medians, microseconds.
type live struct {
	op, opSelf           float64 // the generator's op, and the part outside the entry handler
	handler, handlerSelf float64 // entry node's handler, and the part outside its cluster calls
	fwdIn                float64 // owner's handler of a forwarded request
	resolve              float64 // ResolveAssess, entry and owner calls pooled
	forwardSelf          float64 // ForwardAssess outside the owner's handler: the hop
	late, assess         float64 // open loop: send delay, Fleet.Assess
}

func liveTimes(spans []span) live {
	dur, self := layerTimes(spans)
	us := func(m map[string][]float64, name string) float64 { return median(m[name]) / 1e3 }
	return live{
		op: us(dur, spanOp), opSelf: us(self, spanOp),
		handler: us(dur, spanHandler), handlerSelf: us(self, spanHandler),
		fwdIn: us(dur, spanFwdIn), resolve: us(dur, spanResolve), forwardSelf: us(self, spanForward),
		late: us(dur, spanLate), assess: us(dur, spanAssess),
	}
}

// breakdown is one workload's median op split over the layers it crosses.
// Fields a workload's path does not cross stay 0; layers lists the parts
// that should add up to the op.
type breakdown struct {
	transport, codecRoute, fleetAssess, queueWait float64
	layers                                        []float64
}

// pos clips a figure got by subtraction at 0.
func pos(v float64) float64 { return math.Max(v, 0) }

// singleBreakdown: loopback, handler, then Fleet.Assess, whose time is the
// coalescer's wait around one detector call and one append. Fleet.Assess
// is probed at the same concurrency rather than seen live.
func singleBreakdown(lv live, pr probed) breakdown {
	bd := breakdown{transport: lv.opSelf, fleetAssess: pr.fleetAssess}
	bd.codecRoute = pos(lv.handler - pr.fleetAssess)
	bd.queueWait = pos(pr.fleetAssess - pr.assess - pr.appendUS)
	bd.layers = []float64{bd.transport, bd.codecRoute, bd.queueWait, pr.assess, pr.appendUS}
	return bd
}

// openBreakdown: no transport; the op is the generator's delay plus a
// live Fleet.Assess, in which one row of a coalesced batch is scored.
func openBreakdown(lv live, pr probed) breakdown {
	bd := breakdown{fleetAssess: lv.assess}
	bd.queueWait = pos(lv.assess - pr.batchRow/1e3 - pr.appendUS)
	bd.layers = []float64{lv.late, bd.queueWait, pr.batchRow / 1e3, pr.appendUS}
	return bd
}

// batchWork is the scoring and the appends inside one batch op.
func batchWork(pr probed) float64 { return batchRows * (pr.batchRow/1e3 + pr.appendUS) }

// batchBreakdown: loopback, then a handler that is codec and routing
// around batchWork.
func batchBreakdown(lv live, pr probed) breakdown {
	bd := breakdown{transport: lv.opSelf, codecRoute: pos(lv.handler - batchWork(pr))}
	bd.layers = []float64{bd.transport, bd.codecRoute, batchWork(pr)}
	return bd
}

// forwardBreakdown: as batchBreakdown, but both nodes decode the body —
// the entry handler outside its cluster calls, the owner's outside
// batchWork — with two resolves and the hop between them.
func forwardBreakdown(lv live, pr probed) breakdown {
	bd := breakdown{transport: lv.opSelf, codecRoute: lv.handlerSelf + pos(lv.fwdIn-batchWork(pr))}
	bd.layers = []float64{bd.transport, bd.codecRoute, 2 * lv.resolve, lv.forwardSelf, batchWork(pr)}
	return bd
}

// offlineBreakdown: the op is one batched scoring call; its layers are
// the four pipeline stages.
func offlineBreakdown(_ live, pr probed) breakdown {
	st := pr.stages
	return breakdown{layers: []float64{chunkRows * (st.project + st.transpose + st.votes + st.summarize) / 1e3}}
}

// verdictsIn counts verified verdicts over a whole run, warm-up included,
// to match process counters snapshotted around the run.
func verdictsIn(samples []sample) float64 {
	n := 0
	for _, s := range samples {
		n += int(s.verdicts)
	}
	return float64(n)
}

// probed holds the direct-call timings: medians, in the unit of the
// metric each feeds.
type probed struct {
	fleetAssess    float64 // us, Fleet.Assess at the workload's concurrency
	assess         float64 // us, Detector.AssessInto
	batchRow       float64 // ns per row, Detector.AssessBatchInto
	stages         stageTimes
	twinEqual      bool
	treeMask       float64 // ns, kernel.TreeMask32
	ringLookup     float64 // ns, ring.Ring.Lookup
	appendUS       float64 // us, Store.Append
	bytesPerRecord float64
}

// probe times each layer's public entry point on the workload's inputs.
func probe(st *stack, e *env, budget time.Duration, storeDir string) (probed, error) {
	var pr probed
	X := e.X
	n := batchRows
	if st.entry == nil {
		n = chunkRows
	}

	var scratch detector.BatchScratch
	var perr error
	pr.assess = median(timeBlocks(budget, 16, func(i int) {
		if _, err := st.det.AssessInto(&scratch, X[i%len(X)]); err != nil {
			perr = err
		}
	})) / 1e3
	batches := len(X) / n
	pr.batchRow = median(timeBlocks(budget, 1, func(i int) {
		k := i % batches
		if _, err := st.det.AssessBatchInto(&scratch, X[k*n:(k+1)*n]); err != nil {
			perr = err
		}
	})) / float64(n)
	if perr != nil {
		return pr, perr
	}

	tw, err := newTwin(st)
	if err != nil {
		return pr, err
	}
	pr.twinEqual = true
	var proj, trans, votes, summ []float64
	for k, stop := 0, time.Now().Add(budget); time.Now().Before(stop); k++ {
		batch := X[(k%batches)*n : (k%batches+1)*n]
		times, got, err := tw.score(batch)
		if err != nil {
			return pr, err
		}
		proj, trans = append(proj, times.project/float64(n)), append(trans, times.transpose/float64(n))
		votes, summ = append(votes, times.votes/float64(n)), append(summ, times.summarize/float64(n))
		if k < 4 { // bit-equality is a property of the model, not of the batch
			want, err := st.det.AssessBatchInto(&scratch, batch)
			if err != nil {
				return pr, err
			}
			for i := range want {
				if !sameAssessment(&got[i], &want[i]) {
					pr.twinEqual = false
				}
			}
		}
	}
	pr.stages = stageTimes{median(proj), median(trans), median(votes), median(summ)}

	pr.treeMask = median(probeTreeMask(budget / 3))
	r := ring.New([]string{"n1", "n2", "n3"}, 0)
	var sink string
	pr.ringLookup = median(timeBlocks(budget/3, 1024, func(i int) { sink = r.Lookup(deviceKey(i)) }))
	_ = sink

	store, err := verdictstore.Open(storeDir, verdictstore.Config{})
	if err != nil {
		return pr, err
	}
	defer store.Close()
	rec := verdictstore.Record{Model: modelName, Version: 1, Source: "assess", Decision: "benign",
		Entropy: 0.2422, Votes: []float64{0.96, 0.04}, LatencyMicros: 2345}
	pr.appendUS = median(timeBlocks(budget, batchRows, func(i int) {
		rec.Device = deviceKey(i)
		if _, err := store.Append(rec); err != nil {
			perr = err
		}
	})) / 1e3
	if perr != nil {
		return pr, perr
	}
	ss := store.Stats()
	pr.bytesPerRecord = ratio(float64(ss.Bytes), float64(ss.Records))

	return pr, nil
}

// probeTreeMask times the 32-lane tree-walk kernel on a synthetic forest
// node block the size of the kernel's own micro-benchmark.
func probeTreeMask(budget time.Duration) []float64 {
	const nodes, feats, stride = 22, 17, 256
	rng := rand.New(rand.NewSource(2))
	xcols, thr := make([]float64, feats*stride), make([]float64, nodes)
	for i := range xcols {
		xcols[i] = rng.NormFloat64()
	}
	masks, fidx := make([]uint64, nodes), make([]uint32, nodes)
	for i := range thr {
		thr[i], masks[i], fidx[i] = rng.NormFloat64(), rng.Uint64(), uint32(rng.Intn(feats))
	}
	var v [32]uint64
	return timeBlocks(budget/3, 1024, func(int) {
		for j := range v {
			v[j] = ^uint64(0)
		}
		kernel.TreeMask32(&v, thr, masks, fidx, xcols, stride)
	})
}

// probeFleetAssess calls Fleet.Assess directly from as many goroutines as
// the closed loop has clients, on inputs the cache has not seen, so the
// call meets the coalescer in the state the HTTP workload leaves it in.
func probeFleetAssess(st *stack, e *env, budget time.Duration) float64 {
	X := e.X
	var next atomic.Int64
	var mu sync.Mutex
	var all []float64
	var wg sync.WaitGroup
	stop := time.Now().Add(budget)
	for c := 0; c < e.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []float64
			for time.Now().Before(stop) {
				// Walk backwards from the end of the pool: the load walked
				// forwards from the start, so these are cache misses too.
				i := len(X) - 1 - int(next.Add(1))%len(X)
				t := time.Now()
				_, err := st.entry.fleet.Assess(context.Background(),
					serve.AssessSpec{Device: deviceKey(i), Features: X[i]})
				if err == nil {
					mine = append(mine, float64(time.Since(t)))
					atomic.AddInt64(&st.served, 1)
				}
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return median(all) / 1e3
}
