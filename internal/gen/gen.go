// Package gen builds the paper's two datasets end to end: it runs the
// telemetry simulators over the workload catalogue, extracts features, and
// returns train / known-test / unknown splits with exactly the sample
// counts of Table I.
//
//	DVFS: 2100 train, 700 known test, 284 unknown
//	HPC: 44605 train, 6372 known test, 12727 unknown
//
// Because samples are independent given an application, drawing the train
// and test sets separately per known application is equivalent to drawing
// one pool and splitting it, and lets the generator hit the exact counts.
//
// Determinism: a dataset has one rng, seeded from the seed argument, and
// only the simulator's draws read it. The draws run serially on the
// calling goroutine, split by split and application by application in
// catalogue order, so each sample sees the same rng state as in a plain
// loop. Feature extraction, a pure function of a draw, runs on
// runtime.GOMAXPROCS(0) workers, and samples enter the dataset in draw
// order. The output is bit-identical to the serial loop whatever the
// core count; TestGeneratedDigests pins it.
package gen

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"trusthmd/internal/dvfs"
	"trusthmd/internal/feature"
	"trusthmd/internal/hpc"
	"trusthmd/internal/workload"
	"trusthmd/pkg/dataset"
)

// Splits bundles the three datasets of the paper's Fig. 6 breakdown.
type Splits struct {
	Train   *dataset.Dataset // known applications, training share
	Test    *dataset.Dataset // known applications, held-out share
	Unknown *dataset.Dataset // unknown applications (zero-day bucket)
}

// Sizes fixes the total sample counts of each split.
type Sizes struct {
	Train, Test, Unknown int
}

// TableIDVFS is the DVFS row of the paper's Table I.
var TableIDVFS = Sizes{Train: 2100, Test: 700, Unknown: 284}

// TableIHPC is the HPC row of the paper's Table I.
var TableIHPC = Sizes{Train: 44605, Test: 6372, Unknown: 12727}

// Validate checks the sizes are usable.
func (s Sizes) Validate() error {
	if s.Train < 1 || s.Test < 1 || s.Unknown < 1 {
		return fmt.Errorf("gen: all splits need >=1 sample, got %+v", s)
	}
	return nil
}

// DVFS generates the full-size DVFS dataset (Table I row 1).
func DVFS(seed int64) (Splits, error) { return DVFSWithSizes(seed, TableIDVFS) }

// DVFSWithSizes generates a DVFS dataset with custom split sizes (smaller
// sizes are used by tests and quick benchmarks).
func DVFSWithSizes(seed int64, sizes Sizes) (Splits, error) {
	return DVFSWithConfig(seed, sizes, dvfs.DefaultConfig())
}

// DVFSWithConfig generates a DVFS dataset from a simulator configured by
// cfg (experiment E2 swaps the governor policy this way).
func DVFSWithConfig(seed int64, sizes Sizes, cfg dvfs.Config) (Splits, error) {
	if err := sizes.Validate(); err != nil {
		return Splits{}, err
	}
	sim, err := dvfs.NewSimulator(cfg)
	if err != nil {
		return Splits{}, err
	}
	return generate(source[workload.DVFSBehavior, []int]{
		name: "dvfs",
		dim:  feature.DVFSDim(cfg.Levels),
		apps: workload.DVFSApps(),
		meta: func(a workload.DVFSBehavior) (bool, int, string) { return a.Known, a.Label, a.Name },
		draw: sim.Trace,
		extract: func(trace []int) ([]float64, error) {
			return feature.DVFSVector(trace, cfg.Levels)
		},
	}, seed, sizes)
}

// HPC generates the full-size HPC dataset (Table I row 2).
func HPC(seed int64) (Splits, error) { return HPCWithSizes(seed, TableIHPC) }

// HPCWithSizes generates an HPC dataset with custom split sizes.
func HPCWithSizes(seed int64, sizes Sizes) (Splits, error) {
	if err := sizes.Validate(); err != nil {
		return Splits{}, err
	}
	return generate(source[workload.HPCBehavior, []float64]{
		name:    "hpc",
		dim:     feature.HPCDim(hpc.NumEvents),
		apps:    workload.HPCApps(),
		meta:    func(a workload.HPCBehavior) (bool, int, string) { return a.Known, a.Label, a.Name },
		draw:    hpc.NewGenerator().Window,
		extract: feature.HPCVector,
	}, seed, sizes)
}

// source is one telemetry substrate as the split builder sees it.
type source[B, D any] struct {
	name string // error prefix: "dvfs", "hpc", "em"
	dim  int    // feature vector length
	apps []B    // the catalogue, in order
	meta func(B) (known bool, label int, app string)
	// draw simulates one raw observation of an application. It is the
	// only reader of the rng, so it runs serially on the caller.
	draw func(B, *rand.Rand) (D, error)
	// extract turns an observation into its feature vector. It must be a
	// pure function of its argument: it runs on the worker goroutines.
	extract func(D) ([]float64, error)
}

// generate splits the catalogue into known and unknown applications and
// builds the three splits, in order, on one rng seeded with seed. The
// caller has validated sizes.
func generate[B, D any](src source[B, D], seed int64, sizes Sizes) (Splits, error) {
	var known, unknown []B
	for _, a := range src.apps {
		if k, _, _ := src.meta(a); k {
			known = append(known, a)
		} else {
			unknown = append(unknown, a)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var s Splits
	var err error
	if s.Train, err = buildSplit(src, known, sizes.Train, rng); err != nil {
		return Splits{}, fmt.Errorf("gen: %s train: %w", src.name, err)
	}
	if s.Test, err = buildSplit(src, known, sizes.Test, rng); err != nil {
		return Splits{}, fmt.Errorf("gen: %s test: %w", src.name, err)
	}
	if s.Unknown, err = buildSplit(src, unknown, sizes.Unknown, rng); err != nil {
		return Splits{}, fmt.Errorf("gen: %s unknown: %w", src.name, err)
	}
	return s, nil
}

// maxChunk caps the draws handed to a worker at once: enough to make the
// channel's cost small beside extracting an HPC window.
const maxChunk = 64

// buildSplit spreads total samples over apps with workload.Allocate and
// draws them in catalogue order on the calling goroutine, handing them in
// chunks to runtime.GOMAXPROCS(0) extraction workers. Samples enter the
// dataset in draw order, and the error returned is the one the serial
// draw → extract → Add loop would return: that of the lowest failing
// sample. A failed draw ends the drawing; every worker has exited when
// buildSplit returns.
func buildSplit[B, D any](src source[B, D], apps []B, total int, rng *rand.Rand) (*dataset.Dataset, error) {
	alloc, err := workload.Allocate(total, len(apps))
	if err != nil {
		return nil, err
	}
	samples := make([]dataset.Sample, total)
	errs := make([]error, total)
	type job struct {
		start int
		draws []D
	}
	workers := runtime.GOMAXPROCS(0)
	// About four chunks per worker, so a small split still overlaps its
	// draws with extraction and the last chunk leaves little to wait for.
	chunk := min(maxChunk, max(1, total/(4*workers)))
	// One queued chunk per worker lets the drawer run ahead of busy workers.
	jobs := make(chan job, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for j := range jobs {
				for k, d := range j.draws {
					samples[j.start+k].Features, errs[j.start+k] = src.extract(d)
				}
			}
		}()
	}

	n := 0
	var drawErr error
	batch := make([]D, 0, chunk)
draw:
	for i, app := range apps {
		_, label, name := src.meta(app)
		for k := 0; k < alloc[i]; k++ {
			d, err := src.draw(app, rng)
			if err != nil {
				drawErr = err
				break draw
			}
			samples[n].Label, samples[n].App = label, name
			batch = append(batch, d)
			n++
			if len(batch) == chunk {
				jobs <- job{start: n - chunk, draws: batch}
				batch = make([]D, 0, chunk)
			}
		}
	}
	if len(batch) > 0 {
		jobs <- job{start: n - len(batch), draws: batch}
	}
	close(jobs)
	wg.Wait()

	d := dataset.New(src.dim)
	for i, s := range samples[:n] {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if err := d.Add(s); err != nil {
			return nil, err
		}
	}
	if drawErr != nil {
		return nil, drawErr
	}
	return d, nil
}
