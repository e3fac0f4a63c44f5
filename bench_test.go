// Package trusthmd's benchmarks regenerate every table and figure of the
// paper (BenchmarkExperiments, one sub-benchmark per entry of internal/exp's
// experiments table) and additionally measure the core building blocks.
// Benchmarks default to a scaled-down dataset so `go test -bench=.`
// completes quickly; set TRUSTHMD_BENCH_SCALE=1.0 to run the paper's full
// Table I sizes.
package trusthmd

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"trusthmd/internal/core"
	"trusthmd/internal/ensemble"
	"trusthmd/internal/exp"
	"trusthmd/internal/gen"
	"trusthmd/internal/hmd"
	"trusthmd/internal/ml/tree"
	"trusthmd/internal/reduce"
	"trusthmd/pkg/dataset"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/linalg"
	"trusthmd/pkg/model"
)

func benchScale() float64 {
	if s := os.Getenv("TRUSTHMD_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.08
}

func benchCfg() exp.Config {
	return exp.Config{Seed: 1, Scale: benchScale(), M: 25}
}

// BenchmarkExperiments runs the experiments table, one sub-benchmark per
// ID: `-bench 'Experiments/F5'` runs Fig. 5 alone.
func BenchmarkExperiments(b *testing.B) {
	cfg := benchCfg()
	for _, e := range exp.Experiments {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Component micro-benchmarks ---

func dvfsBenchData(b *testing.B) gen.Splits {
	b.Helper()
	s, err := gen.DVFSWithSizes(2, gen.Sizes{Train: 700, Test: 140, Unknown: 40})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkDatasetGenDVFS(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gen.DVFSWithSizes(int64(i), gen.Sizes{Train: 140, Test: 70, Unknown: 40}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDatasetGenHPC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gen.HPCWithSizes(int64(i), gen.Sizes{Train: 1400, Test: 280, Unknown: 140}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineTrainRF(b *testing.B) {
	b.ReportAllocs()
	s := dvfsBenchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := detector.New(s.Train,
			detector.WithModel("rf"), detector.WithEnsembleSize(25), detector.WithSeed(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineAssess(b *testing.B) {
	b.ReportAllocs()
	s := dvfsBenchData(b)
	d, err := detector.New(s.Train,
		detector.WithModel("rf"), detector.WithEnsembleSize(25), detector.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	x := s.Test.At(0).Features
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Assess(x); err != nil {
			b.Fatal(err)
		}
	}
}

// assessBenchSetup trains the paper's 25-member RF detector and returns it
// with a 1000-sample test batch (the acceptance workload for the batched
// assessment path).
func assessBenchSetup(b *testing.B) (*detector.Detector, [][]float64) {
	b.Helper()
	s, err := gen.DVFSWithSizes(2, gen.Sizes{Train: 700, Test: 1000, Unknown: 40})
	if err != nil {
		b.Fatal(err)
	}
	d, err := detector.New(s.Train,
		detector.WithModel("rf"), detector.WithEnsembleSize(25), detector.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	X := make([][]float64, s.Test.Len())
	for i := range X {
		X[i] = s.Test.At(i).Features
	}
	return d, X
}

// BenchmarkAssessSequential is the unbatched serving loop: one Assess call
// per sample, each a one-row batch through the assess core (lone-row
// member walk, pooled scratch).
func BenchmarkAssessSequential(b *testing.B) {
	b.ReportAllocs()
	d, X := assessBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range X {
			if _, err := d.Assess(x); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAssessBatch is the batched serving hot path: scale+PCA once
// per batch into scratch matrices, member-major flattened-tree inference,
// and results written into a reused workspace — the zero-allocation
// steady state a long-lived server runs in (TestAllocsAssessBatchInto
// pins allocs/op at 0). The row counts are small client batches (2, 8,
// 32), the 64-row batch body `trusthmd push` sends and a 1000-row offline
// chunk. Compare against BenchmarkAssessSequential;
// results are element-wise identical to per-sample Assess (see
// detector.TestEntryPointsMatchReference).
func BenchmarkAssessBatch(b *testing.B) {
	d, X := assessBenchSetup(b)
	for _, rows := range []int{2, 8, 32, 64, 1000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			var sc detector.BatchScratch
			for i := 0; i < b.N; i++ {
				if _, err := d.AssessBatchInto(&sc, X[:rows]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

// BenchmarkAssessBatchAlloc drives the same batched path through the
// plain AssessBatch API, whose results (and their VoteDist backing) are
// freshly allocated because they outlive the call — the price of the
// convenience API over AssessBatchInto.
func BenchmarkAssessBatchAlloc(b *testing.B) {
	b.ReportAllocs()
	d, X := assessBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.AssessBatch(X); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlinePush measures the per-sample cost of the streaming
// window at the paper's window=256 operating point, with assessments
// strided out of the way so only the window maintenance is visible. The
// ring buffer makes this O(1); the previous copy-based slide paid
// O(window) per sample.
func BenchmarkOnlinePush(b *testing.B) {
	s, err := gen.DVFSWithSizes(3, gen.Sizes{Train: 280, Test: 40, Unknown: 40})
	if err != nil {
		b.Fatal(err)
	}
	d, err := detector.New(s.Train,
		detector.WithModel("rf"), detector.WithEnsembleSize(11), detector.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	o, err := detector.NewOnline(d, detector.StreamConfig{
		Levels: 8, Window: 256, Stride: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := o.Push(i & 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineAssessVaried streams a stride-1 window of 256 states:
// every push completes a window, so each pays feature extraction and the
// full assessment.
func BenchmarkOnlineAssessVaried(b *testing.B) {
	s, err := gen.DVFSWithSizes(3, gen.Sizes{Train: 280, Test: 40, Unknown: 40})
	if err != nil {
		b.Fatal(err)
	}
	d, err := detector.New(s.Train,
		detector.WithModel("rf"), detector.WithEnsembleSize(11), detector.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	o, err := detector.NewOnline(d, detector.StreamConfig{Levels: 8, Window: 256, Stride: 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if _, _, err := o.Push(i & 7); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := o.Push(i & 7); err != nil || !ok {
			b.Fatalf("push %d: ok=%v err=%v", i, ok, err)
		}
	}
}

func BenchmarkTreeFit(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	n, d := 2000, 17
	X := linalg.New(n, d)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			X.Set(i, j, rng.NormFloat64())
		}
		if X.At(i, 0) > 0 {
			y[i] = 1
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fixed seed: the sqrt(d) feature sampling makes fitted-tree size
		// (and therefore ns/op) swing several-fold across seeds, so a
		// per-iteration seed would make this benchmark's number depend on
		// -benchtime. Seed 0 matches what single-iteration historical
		// snapshots actually measured.
		tr := tree.New(tree.Config{MaxFeatures: -1, Seed: 0})
		if err := tr.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// noisyFitData draws n samples of d standard-normal features whose label
// follows two of them with 15% of labels flipped: no feature separates the
// classes, so a tree grows until its leaves are pure — the shape HPC
// training has, and the opposite of BenchmarkTreeFit's three-node tree.
func noisyFitData(n, d int) (*linalg.Matrix, []int) {
	rng := rand.New(rand.NewSource(1))
	X := linalg.New(n, d)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			X.Set(i, j, rng.NormFloat64())
		}
		if (X.At(i, 0)+X.At(i, 1) > 0) != (rng.Float64() < 0.15) {
			y[i] = 1
		}
	}
	return X, y
}

// BenchmarkTreeFitDeep fits one unlimited-depth random-forest member on
// 8000x16 noisy samples (thousands of nodes), so the per-node split search
// and the hand-down of samples to children are all of the time. Every row
// is distinct, so grouping repeated rows saves nothing here; see
// BenchmarkTreeFitDeepBootstrap for the other side.
func BenchmarkTreeFitDeep(b *testing.B) {
	X, y := noisyFitData(8000, 16)
	benchTreeFit(b, X, y)
}

// BenchmarkTreeFitDeepBootstrap fits the same member on one full-size
// bootstrap replicate of those rows, the training set an ensemble member
// sees: about 63 % of its rows are distinct.
func BenchmarkTreeFitDeepBootstrap(b *testing.B) {
	X, y := noisyFitData(8000, 16)
	X, y = ensemble.ResampleN(X, y, X.Rows(), rand.New(rand.NewSource(1)))
	benchTreeFit(b, X, y)
}

func benchTreeFit(b *testing.B, X *linalg.Matrix, y []int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := tree.New(tree.Config{MaxFeatures: -1, Seed: 0})
		if err := tr.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaggingFit trains the default ensemble (25 bootstrap members,
// fitted in parallel) of such trees on 2000x16 samples: bootstrap
// replicates repeat rows, so every member sorts heavy ties.
func BenchmarkBaggingFit(b *testing.B) {
	b.ReportAllocs()
	X, y := noisyFitData(2000, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ens := ensemble.New(ensemble.Config{
			M:    25,
			New:  func(seed int64) model.Classifier { return tree.New(tree.Config{MaxFeatures: -1, Seed: seed}) },
			Seed: 1,
		})
		if err := ens.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestFit is the in-repo twin of the set-up the repo benchmark
// times (setup_s; detector.train_s in its traces): detector.New with the rf
// defaults and train seed 1 on the two training sets the benchmark boots
// from — full Table-I DVFS, and quarter Table-I HPC for offline-score —
// with the data generated outside the timer. The forest trains on
// GOMAXPROCS workers, as there.
func BenchmarkForestFit(b *testing.B) {
	quarter := gen.Sizes{Train: gen.TableIHPC.Train / 4, Test: gen.TableIHPC.Test / 4, Unknown: gen.TableIHPC.Unknown / 4}
	for _, c := range []struct {
		name   string
		splits func() (gen.Splits, error)
	}{
		{"dvfs", func() (gen.Splits, error) { return gen.DVFS(1) }},
		{"hpc-quarter", func() (gen.Splits, error) { return gen.HPCWithSizes(1, quarter) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			s, err := c.splits()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := detector.New(s.Train, detector.WithModel("rf"), detector.WithSeed(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMulInto measures the dense product at sizes bracketing the
// parallel cutover (mulParallelFlops = 2^21): "small" shapes stay serial
// on the kernel axpy, "large" ones fan out row blocks. The batch hot path
// (256x17 by 17x5) sits far below the cutover and must never pay goroutine
// overhead.
func BenchmarkMulInto(b *testing.B) {
	shapes := []struct {
		name    string
		m, k, n int
	}{
		{"batch256x17x5", 256, 17, 5}, // the PCA projection shape
		{"serial64", 64, 64, 64},      // 262k flops: serial
		{"cutover128", 128, 128, 128}, // 2.1M flops: right at the threshold
		{"parallel256", 256, 256, 256},
	}
	rng := rand.New(rand.NewSource(5))
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			A := linalg.New(sh.m, sh.k)
			B := linalg.New(sh.k, sh.n)
			dst := linalg.New(sh.m, sh.n)
			for i := 0; i < sh.m; i++ {
				for j := 0; j < sh.k; j++ {
					A.Set(i, j, rng.NormFloat64())
				}
			}
			for i := 0; i < sh.k; i++ {
				for j := 0; j < sh.n; j++ {
					B.Set(i, j, rng.NormFloat64())
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := A.MulInto(dst, B); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// treeCompareSetup fits one forest tree and a 256-row projected batch —
// the per-member workload of the batched assessment path.
func treeCompareSetup(b *testing.B) (*tree.Tree, *linalg.Matrix, *linalg.Matrix, []int) {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	n, d := 700, 17
	X := linalg.New(n, d)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			X.Set(i, j, rng.NormFloat64())
		}
		if X.At(i, 0)+0.3*X.At(i, 1) > 0.2 {
			y[i] = 1
		}
	}
	tr := tree.New(tree.Config{MaxFeatures: -1, Seed: 0})
	if err := tr.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	Z := linalg.New(256, d)
	for i := 0; i < 256; i++ {
		for j := 0; j < d; j++ {
			Z.Set(i, j, rng.NormFloat64())
		}
	}
	ZT := linalg.New(d, 256)
	if err := Z.TInto(ZT); err != nil {
		b.Fatal(err)
	}
	return tr, Z, ZT, make([]int, 256)
}

// BenchmarkTreeCompare8 is PredictBatch over one 256-row batch of a
// DVFS-sized tree — the row-major batched walk, which at this size is the
// level walk; every batch of a tree past 64 leaves, and every batch on a
// host without the vector tree step, goes this way. (The name dates from
// the 8-lane lockstep kernel, which PredictBatch still uses below 32
// rows; BenchmarkTreeWalkDeep sweeps the row count.)
func BenchmarkTreeCompare8(b *testing.B) {
	tr, Z, _, out := treeCompareSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.PredictBatch(Z, out)
	}
}

// BenchmarkTreeCompareCols is the vectorized bitmask walk over the same
// batch (transpose precomputed, as the ensemble shares it across members).
// On non-AVX2 hosts it degrades to the row-major walk above.
func BenchmarkTreeCompareCols(b *testing.B) {
	tr, Z, ZT, out := treeCompareSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.PredictBatchCols(Z, ZT, out)
	}
}

// BenchmarkTreeWalkDeep is the in-repo twin of the benchmark's
// hmd.votes_row_ns on offline-score: the 25 trees of the quarter-Table-I
// HPC forest (the model TestGoldenModelHashes pins; 2.4k-2.7k nodes and
// ~1.3k leaves a tree, so no bitmask form) each walking one batch through
// PredictBatch, per batch size on either side of the 32-row walk choice.
// Batches are cut from a pool of distinct projected test rows and cycled,
// so the branch predictor cannot learn a batch; ns/row-tree is the time of
// one row through one tree.
func BenchmarkTreeWalkDeep(b *testing.B) {
	quarter := gen.Sizes{Train: gen.TableIHPC.Train / 4, Test: gen.TableIHPC.Test / 4, Unknown: gen.TableIHPC.Unknown / 4}
	s, err := gen.HPCWithSizes(1, quarter)
	if err != nil {
		b.Fatal(err)
	}
	p, err := hmd.Train(s.Train, hmd.Config{
		NewMember: func(seed int64) model.Classifier { return tree.New(tree.Config{MaxFeatures: -1, Seed: seed}) },
		M:         25,
		Seed:      1,
	})
	if err != nil {
		b.Fatal(err)
	}
	var trees []*tree.Tree
	for _, m := range p.Ensemble().Estimators() {
		trees = append(trees, m.(*tree.Tree))
	}
	const pool = 4096 // test + unknown hold 4774 distinct rows
	rows := make([][]float64, 0, pool)
	for _, part := range []*dataset.Dataset{s.Test, s.Unknown} {
		for i := 0; i < part.Len() && len(rows) < pool; i++ {
			rows = append(rows, part.At(i).Features)
		}
	}
	Z, err := p.ProjectRowsScratch(rows, linalg.New(0, 0), linalg.New(0, 0))
	if err != nil {
		b.Fatal(err)
	}
	d := Z.Cols()
	for _, n := range []int{8, 31, 32, 64, 256, 1024} {
		b.Run("rows="+strconv.Itoa(n), func(b *testing.B) {
			batches := make([]*linalg.Matrix, pool/n)
			for k := range batches {
				batches[k] = linalg.New(n, d)
				copy(batches[k].Raw(), Z.Raw()[k*n*d:(k+1)*n*d])
			}
			out := make([]int, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				X := batches[i%len(batches)]
				for _, tr := range trees {
					tr.PredictBatch(X, out)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*len(trees)), "ns/row-tree")
		})
	}
}

// BenchmarkScalerTransform is the fused center+scale pass over a full
// batch — the first stage of every batched assessment.
func BenchmarkScalerTransform(b *testing.B) {
	s := dvfsBenchData(b)
	sc, err := dataset.FitScaler(s.Train.X())
	if err != nil {
		b.Fatal(err)
	}
	X := linalg.New(256, s.Train.X().Cols())
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < X.Rows(); i++ {
		for j := 0; j < X.Cols(); j++ {
			X.Set(i, j, rng.NormFloat64())
		}
	}
	dst := linalg.New(256, X.Cols())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sc.TransformInto(dst, X); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnsembleVotes(b *testing.B) {
	b.ReportAllocs()
	s := dvfsBenchData(b)
	ens := ensemble.New(ensemble.Config{
		M:    25,
		New:  func(seed int64) model.Classifier { return tree.New(tree.Config{MaxFeatures: -1, Seed: seed}) },
		Seed: 1,
	})
	if err := ens.Fit(s.Train.X(), s.Train.Y()); err != nil {
		b.Fatal(err)
	}
	x := s.Test.At(0).Features
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ens.Votes(x)
	}
}

func BenchmarkVoteEntropy(b *testing.B) {
	b.ReportAllocs()
	var est core.Estimator
	votes := make([]int, 25)
	for i := range votes {
		votes[i] = i % 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Summarize(votes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPCA(b *testing.B) {
	b.ReportAllocs()
	s := dvfsBenchData(b)
	X := s.Train.X()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := reduce.FitPCA(X, 5)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Transform(X); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTSNE(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(3))
	X := linalg.New(120, 10)
	for i := 0; i < X.Rows(); i++ {
		for j := 0; j < X.Cols(); j++ {
			X.Set(i, j, rng.NormFloat64())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reduce.FitTSNE(X, reduce.TSNEConfig{Iterations: 100, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
