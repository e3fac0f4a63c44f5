package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"trusthmd/internal/gen"
	"trusthmd/pkg/detector"
)

// workload is one named traffic shape. BENCHMARK.json says in a line why
// each exists; README.md says which layer metric is predicted to move
// which end-to-end metric on it.
type workload struct {
	name  string
	shape shape
	// build generates the workload's inputs from the seeded rng and
	// returns its load source. It runs after set-up and outside its clock.
	build func(e *env) (generator, error)
	// breakdown splits the traced op over the layers this workload's
	// requests cross; probeFleet asks for the Fleet.Assess probe it needs.
	breakdown  func(live, probed) breakdown
	probeFleet bool
}

// env is what a workload's inputs are generated against.
type env struct {
	st      *stack
	client  *http.Client
	tr      *tracer
	rng     *rand.Rand
	clients int
	rate    float64 // open-loop arrivals per second
	pool    int     // distinct vectors the serving workloads walk through
	// X is every input vector the workload sends, for the layer probes.
	X [][]float64
}

var workloads = []workload{
	{
		name:  "single-closed",
		shape: shapeNode, breakdown: singleBreakdown, probeFleet: true,
		build: func(e *env) (generator, error) {
			X, want, err := pooled(e, e.pool)
			if err != nil {
				return nil, err
			}
			bodies := make([][]byte, len(X))
			for i, x := range X {
				bodies[i] = assessBody(i, x)
			}
			return &httpClosed{st: e.st, client: e.client, tr: e.tr, clients: e.clients,
				url: e.st.entry.url + "/v1/assess", bodies: bodies, rowsPerOp: 1, want: want}, nil
		},
	},
	{
		name:  "fleet-open",
		shape: shapeNode, breakdown: openBreakdown,
		build: func(e *env) (generator, error) {
			X, want, err := pooled(e, e.pool+hotSize)
			if err != nil {
				return nil, err
			}
			return &openLoop{st: e.st, tr: e.tr, rng: e.rng, rate: e.rate, X: X, want: want}, nil
		},
	},
	{
		name:  "batch-closed",
		shape: shapeNode, breakdown: batchBreakdown,
		build: buildBatch,
	},
	{
		name:  "forward-closed",
		shape: shapeCluster, breakdown: forwardBreakdown,
		build: buildBatch,
	},
	{
		name:  "offline-score",
		shape: shapeOffline, breakdown: offlineBreakdown,
		build: func(e *env) (generator, error) {
			all := rows(e.st.splits.Test, e.st.splits.Unknown)
			e.rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			want, err := oracle(e.st.det, all)
			if err != nil {
				return nil, err
			}
			e.X = all
			g := &offline{st: e.st, tr: e.tr}
			// Every op scores exactly chunkRows rows; the last chunk wraps
			// round to the first rows.
			for at := 0; at < len(all); at += chunkRows {
				X := make([][]float64, chunkRows)
				w := make([]detector.Result, chunkRows)
				for j := range X {
					X[j], w[j] = all[(at+j)%len(all)], want[(at+j)%len(all)]
				}
				g.chunks, g.want = append(g.chunks, X), append(g.want, w)
			}
			return g, nil
		},
	},
}

func buildBatch(e *env) (generator, error) {
	X, want, err := pooled(e, e.pool)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(X)/batchRows)
	for k := range bodies {
		bodies[k] = batchBody(k, X[k*batchRows:(k+1)*batchRows])
	}
	return &httpClosed{st: e.st, client: e.client, tr: e.tr, clients: e.clients,
		url: e.st.entry.url + "/v1/assess/batch", bodies: bodies, rowsPerOp: batchRows, want: want}, nil
}

// pooled draws n jittered vectors from the held-out splits and computes
// their reference verdicts.
func pooled(e *env, n int) ([][]float64, []detector.Result, error) {
	X := jitterPool(e.rng, rows(e.st.splits.Test, e.st.splits.Unknown), n)
	want, err := oracle(e.st.det, X)
	e.X = X
	return X, want, err
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// The measured window is cut into slices of sliceLen, and the end-to-end
// figures are taken from its calmest calmShare of slices — those with the
// lowest median op latency — pooled: throughput is their verdicts over
// their time, latency percentiles are over their ops.
//
// Why not the whole window, or the median slice: on the two-vCPU box this
// was built on, a vCPU's speed switches between levels some 1.4x apart
// every second or so (a neighbour on the sibling hyperthread) — on one
// pinned, allocation-free goroutine as on the full stack. A mean or a
// median slice is then a mixture of levels in proportions that differ from
// run to run: ten-run interquartile spreads of 16-34% of the median on the
// CPU-bound workloads, against 5-12% for the calmest twentieth (README.md
// has the table). The figures therefore describe the program while the
// machine is not being taken away from it; what they cannot show, a
// change that only hurts now and then, is what the whole-window
// client.latency_p99_us and _max_us are reported for.
const (
	sliceLen  = 50 * time.Millisecond
	calmShare = 0.05
)

// figures are the load metrics over one set of ops.
type figures struct {
	tput     float64 // verified verdicts per second
	p50, p90 float64 // op latency in microseconds
	ops      int
}

// window is the measured part of a run, reduced.
type window struct {
	attempted int // ops completed inside the window
	failed    int
	verdicts  int       // verified verdicts
	calm      figures   // over the calmest slices: what is reported
	whole     figures   // over every slice: printed beside it
	lat       []float64 // every op's latency in microseconds, ascending
	late      []float64 // open loop: every op's send delay in microseconds, ascending
}

// slice is the ops that completed in one sliceLen of the window.
type slice struct {
	lat      []float64
	verdicts int
}

func figuresOf(slices []slice) figures {
	var f figures
	var lat []float64
	verdicts := 0
	for _, sl := range slices {
		lat = append(lat, sl.lat...)
		verdicts += sl.verdicts
	}
	sort.Float64s(lat)
	f.ops = len(lat)
	f.tput = ratio(float64(verdicts), (time.Duration(len(slices)) * sliceLen).Seconds())
	f.p50 = percentile(lat, 0.50)
	f.p90 = percentile(lat, supported(0.90, len(lat)))
	return f
}

// reduce cuts the samples that completed inside [0, measure) into slices
// and picks the calm ones.
func reduce(samples []sample, measure time.Duration) window {
	var w window
	n := int(measure / sliceLen)
	if n < 1 {
		n = 1
	}
	slices := make([]slice, n)
	for _, s := range samples {
		if s.end < 0 || s.end >= int64(n)*int64(sliceLen) {
			continue
		}
		w.attempted++
		if s.failed {
			w.failed++
		}
		w.verdicts += int(s.verdicts)
		sl := &slices[s.end/int64(sliceLen)]
		us := float64(s.lat) / 1e3
		sl.lat = append(sl.lat, us)
		sl.verdicts += int(s.verdicts)
		w.lat = append(w.lat, us)
		w.late = append(w.late, float64(s.late)/1e3)
	}
	sort.Float64s(w.lat)
	sort.Float64s(w.late)
	w.whole = figuresOf(slices)

	// A slice that completed almost nothing was mostly a stall; its few
	// ops say nothing about a calm machine. Rank the rest by median.
	counts := make([]float64, n)
	for i, sl := range slices {
		counts[i] = float64(len(sl.lat))
	}
	floor := median(counts) / 2
	type ranked struct {
		sl  slice
		p50 float64
	}
	var full []ranked
	for _, sl := range slices {
		if c := float64(len(sl.lat)); c > 0 && c >= floor {
			sort.Float64s(sl.lat)
			full = append(full, ranked{sl, percentile(sl.lat, 0.50)})
		}
	}
	sort.SliceStable(full, func(a, b int) bool { return full[a].p50 < full[b].p50 })
	keep := int(math.Ceil(calmShare * float64(n)))
	if keep > len(full) {
		keep = len(full)
	}
	calm := make([]slice, keep)
	for i := range calm {
		calm[i] = full[i].sl
	}
	w.calm = figuresOf(calm)
	return w
}

// plan sizes one run. The command line uses fullPlan; tests shrink it.
type plan struct {
	// setUps is how many times the program is booted from nothing; set-up
	// time is their median and the load runs against the last. The offline
	// workload trains on HPC data, ten times as long a boot, so it gets
	// fewer.
	setUps, offlineSetUps int
	// warm is driven before the measured window opens, measure is the
	// window, probe the budget of each direct-call layer probe.
	warm, measure, probe time.Duration
	// openRate is the open-loop arrival rate per second: high enough that
	// the coalescer flushes on size (mean batch near MaxBatch), low enough
	// that two cores keep up with no backlog.
	openRate float64
	// pool is the number of distinct vectors the serving workloads walk
	// through; it must exceed the result cache for every row to miss.
	pool int
	// hpc sizes the offline workload's dataset.
	hpc gen.Sizes
}

// fullPlan is the benchmark as defined: seven boots (three offline), two
// seconds of warm-up, a quarter of Table I's HPC row.
func fullPlan(seconds int) plan {
	return plan{
		setUps: 7, offlineSetUps: 3, warm: 2 * time.Second, measure: time.Duration(seconds) * time.Second,
		probe: 300 * time.Millisecond, openRate: 30000, pool: poolSize,
		hpc: gen.Sizes{Train: gen.TableIHPC.Train / 4, Test: gen.TableIHPC.Test / 4, Unknown: gen.TableIHPC.Unknown / 4},
	}
}

// session is one workload booted, its inputs generated, ready to drive.
type session struct {
	client *http.Client
	st     *stack
	e      *env
	g      generator
	took   []float64     // every boot's duration in seconds, ascending
	inputs time.Duration // spent generating inputs and their oracle verdicts
}

// open sets the program up boots times from nothing, keeping only the
// last stack, then generates the workload's inputs against it.
func open(w workload, seed int64, pl plan, boots int, dir string, tr *tracer) (*session, error) {
	clients := runtime.NumCPU()
	ss := &session{client: newClient(clients)}
	for k := 0; k < boots; k++ {
		ss.close()
		st, err := setUp(w.shape, pl.hpc, filepath.Join(dir, fmt.Sprintf("setup-%d", k)), ss.client, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", w.name, k, err)
		}
		ss.st = st
		ss.took = append(ss.took, st.total.Seconds())
	}
	sort.Float64s(ss.took)
	t := time.Now()
	ss.e = &env{st: ss.st, client: ss.client, tr: tr, rng: rand.New(rand.NewSource(seed)),
		clients: clients, rate: pl.openRate, pool: pl.pool}
	var err error
	if ss.g, err = w.build(ss.e); err != nil {
		ss.close()
		return nil, fmt.Errorf("%s: inputs: %w", w.name, err)
	}
	ss.inputs = time.Since(t)
	return ss, nil
}

// close shuts the session's stack down and drops its connections.
func (ss *session) close() {
	if ss.st != nil {
		ss.st.close()
		ss.st = nil
	}
	ss.client.CloseIdleConnections()
}

// verify checks what must hold once a workload's load has stopped: no op
// failed, every verdict served is in a store, and requests took the hop
// the workload claims.
func verify(w workload, st *stack, failed int, forwarded, ops int64) error {
	var errs []error
	if failed > 0 {
		errs = append(errs, fmt.Errorf("%d ops failed or returned a verdict differing from the oracle", failed))
	}
	if st.entry != nil {
		if got := st.appended(); got != st.served {
			errs = append(errs, fmt.Errorf("verdict stores hold %d records, %d verdicts were served", got, st.served))
		}
	}
	want := int64(0)
	if w.shape == shapeCluster {
		want = ops
	}
	if forwarded != want {
		errs = append(errs, fmt.Errorf("%d ops were forwarded, want %d", forwarded, want))
	}
	return errors.Join(errs...)
}

// runUntraced measures a workload's end-to-end metrics: set-up time over
// several boots, then one warm-up and one measured window.
func runUntraced(w workload, seed int64, pl plan, dir string) (*outcome, error) {
	boots := pl.setUps
	if w.shape == shapeOffline {
		boots = pl.offlineSetUps
	}
	ss, err := open(w, seed, pl, boots, dir, nil)
	if err != nil {
		return nil, err
	}
	defer ss.close()

	fwd0 := ss.st.forwards()
	samples := ss.g.run(pl.warm, pl.measure)
	win := reduce(samples, pl.measure)

	o := newOutcome(w.name, win)
	o.err = verify(w, ss.st, failedIn(samples), ss.st.forwards()-fwd0, int64(len(samples)))
	o.Correct = o.err == nil
	o.set("setup_s", "s", median(ss.took))
	o.Detail["setup_s"] = detail{Min: ss.took[0], Max: ss.took[len(ss.took)-1], Samples: len(ss.took)}
	o.load("verdicts_per_s", "1/s", win.calm.tput, win.whole.tput, win.calm.ops)
	o.load("latency_p50_us", "us", win.calm.p50, win.whole.p50, win.calm.ops)
	o.note("inputs generated in %.2fs", ss.inputs.Seconds())
	o.checkGenerator(win, samples)
	return o, nil
}

// failedIn counts failed ops over a whole run, warm-up included: a wrong
// verdict is wrong whenever it was served.
func failedIn(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.failed {
			n++
		}
	}
	return n
}

// maxLateP99 is the send delay beyond which the open-loop generator, not
// the program, is what the latency figures describe.
const maxLateP99 = 5000 // microseconds

// checkGenerator says when the figures describe the open-loop generator
// rather than the program, and when the fleet pushed back.
func (o *outcome) checkGenerator(win window, samples []sample) {
	late := percentile(win.late, supported(0.99, len(win.late)))
	if late > maxLateP99 {
		o.Valid = false
		o.note("INVALID: generator ran late (p99 %.0f us > %d us); latency describes the generator", late, maxLateP99)
	}
	shed := 0
	for _, s := range samples {
		shed += int(s.shed)
	}
	if shed > 0 {
		o.note("the fleet shed arrivals %d times; each backed off and was retried", shed)
	}
}
