package ensemble

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"trusthmd/internal/ml/tree"
	"trusthmd/pkg/linalg"
	"trusthmd/pkg/model"
)

// fitReplicates is the member loop Fit ran before tree members trained from
// a shared presort, kept as the oracle: every member copies its bootstrap
// replicate (ResampleN), then its feature subset (selectColumns), and fits
// the copy. Members run one after another, and every member's error and
// seed are returned; the ensemble holds every member, failed ones unfitted.
func fitReplicates(cfg Config, X *linalg.Matrix, y []int) (*Bagging, []error, []int64) {
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	members := make([]model.Classifier, cfg.M)
	features := make([][]int, cfg.M)
	errs := make([]error, cfg.M)
	nSub := X.Cols()
	if cfg.MaxFeatures > 0 {
		nSub = max(int(cfg.MaxFeatures*float64(X.Cols())), 1)
	}
	bootSeeds, memberSeeds := make([]int64, cfg.M), make([]int64, cfg.M)
	for m := range cfg.M {
		bootSeeds[m] = seedRng.Int63()
		memberSeeds[m] = seedRng.Int63()
		if nSub < X.Cols() {
			idx := seedRng.Perm(X.Cols())[:nSub]
			sortInts(idx)
			features[m] = idx
		}
	}
	for m := range cfg.M {
		tx, ty := X, y
		if cfg.Diversity == Bootstrap {
			size := X.Rows()
			if cfg.MaxSamples > 0 {
				size = max(int(cfg.MaxSamples*float64(X.Rows())), 1)
			}
			tx, ty = ResampleN(X, y, size, rand.New(rand.NewSource(bootSeeds[m])))
		}
		if features[m] != nil {
			tx = selectColumns(tx, features[m])
		}
		members[m] = cfg.New(memberSeeds[m])
		if err := members[m].Fit(tx, ty); err != nil {
			errs[m] = fmt.Errorf("ensemble: member %d: %w", m, err)
		}
	}
	classes := 2
	for _, lab := range y {
		classes = max(classes, lab+1)
	}
	return &Bagging{cfg: cfg, members: members, features: features, classes: classes}, errs, memberSeeds
}

// recordingTrees returns a tree factory over base (its Seed replaced by the
// member seed) that remembers every tree it made by seed, and the lookup.
func recordingTrees(base tree.Config) (model.Factory, func(seed int64) *tree.Tree) {
	var mu sync.Mutex
	made := map[int64]*tree.Tree{}
	return func(seed int64) model.Classifier {
			cfg := base
			cfg.Seed = seed
			tr := tree.New(cfg)
			mu.Lock()
			made[seed] = tr
			mu.Unlock()
			return tr
		}, func(seed int64) *tree.Tree {
			mu.Lock()
			defer mu.Unlock()
			return made[seed]
		}
}

// gobOf is the gob encoding of a fitted classifier, "" for an unfitted one.
func gobOf(t testing.TB, c model.Classifier) string {
	t.Helper()
	if tr, ok := c.(*tree.Tree); ok && tr.Depth() < 0 {
		return ""
	}
	data, err := c.(interface{ GobEncode() ([]byte, error) }).GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// checkForest fits cfg on (X, y) through Fit and through fitReplicates. When
// every oracle member trains, Fit must succeed and save the oracle's bytes.
// When some fail, Fit must return the first failure in member order, leave
// exactly the failed members unfitted and train the others to the oracle's
// bytes.
func checkForest(t testing.TB, cfg Config, base tree.Config, X *linalg.Matrix, y []int) {
	t.Helper()
	oracle, _ := recordingTrees(base)
	cfg.New = oracle
	want, wantErrs, seeds := fitReplicates(cfg, X, y)
	factory, made := recordingTrees(base)
	cfg.New = factory
	var firstErr error
	for _, err := range wantErrs {
		if err != nil {
			firstErr = err
			break
		}
	}
	got := New(cfg)
	err := got.Fit(X, y)
	if firstErr == nil {
		if err != nil {
			t.Fatalf("%+v: Fit failed where every replicate trains: %v", base, err)
		}
		gotGob, err := got.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		wantGob, err := want.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotGob, wantGob) {
			for m := range want.members {
				if gobOf(t, got.members[m]) != gobOf(t, want.members[m]) {
					t.Fatalf("%+v: member %d differs from its replicate's tree", base, m)
				}
			}
			t.Fatalf("%+v: saved ensemble differs from the replicates' (%d vs %d bytes)", base, len(gotGob), len(wantGob))
		}
		return
	}
	if err == nil {
		t.Fatalf("%+v: Fit succeeded where the replicates fail with %v", base, firstErr)
	}
	prefix := firstErr.Error()[:strings.Index(firstErr.Error(), ": tree:")]
	if !strings.HasPrefix(err.Error(), prefix+":") {
		t.Fatalf("%+v: Fit returned %q, want the first failing member's %q", base, err, firstErr)
	}
	for m, c := range want.members {
		tr := made(seeds[m])
		if tr == nil {
			t.Fatalf("member %d was never made", m)
		}
		if (wantErrs[m] != nil) != (tr.Depth() < 0) {
			t.Fatalf("%+v: member %d failed=%v, its replicate failed=%v", base, m, tr.Depth() < 0, wantErrs[m] != nil)
		}
		if gobOf(t, tr) != gobOf(t, c) {
			t.Fatalf("%+v: member %d differs from its replicate's tree", base, m)
		}
	}
}

// forestData draws n rows of d features with k classes, made of the value
// patterns a shared presort could part ways with a copy on: continuous
// values, a 12-level column, both infinities, zeros of both signs in
// columns that also hold ±1, rows that repeat under the same label and
// under another, and twins that differ only in the sign of their zeros.
func forestData(rng *rand.Rand, n, d, k int) (*linalg.Matrix, []int) {
	X := linalg.New(n, d)
	y := make([]int, n)
	for i := range n {
		for j := range d {
			var v float64
			switch j % 4 {
			case 0:
				v = rng.NormFloat64()
			case 1:
				v = float64(rng.Intn(12))
			case 2:
				v = []float64{math.Copysign(0, -1), 0, -1, 1}[rng.Intn(4)]
			default:
				v = rng.NormFloat64()
				if rng.Intn(8) == 0 {
					v = math.Inf(rng.Intn(2)*2 - 1)
				}
			}
			X.Set(i, j, v)
		}
		y[i] = int(math.Abs(X.At(i, 0)+X.At(i, 1))*1.5+rng.Float64()) % k
	}
	for i := 2 * n / 3; i < n; i++ {
		src := rng.Intn(2 * n / 3)
		copy(X.Row(i), X.Row(src))
		y[i] = y[src]
		switch rng.Intn(4) {
		case 0:
			y[i] = (y[src] + 1) % k // the same vector under another label
		case 1:
			for j := 2; j < d; j += 4 {
				if X.At(i, j) == 0 {
					X.Set(i, j, math.Copysign(0, -1)*math.Copysign(1, X.At(i, j)))
				}
			}
		}
	}
	return X, y
}

// TestForestFitMatchesReplicates is the contract of training members from
// one shared presort: over diversity x MaxSamples x MaxFeatures x criterion
// x class count x worker count, the saved ensemble is byte for byte the one
// the copy-per-member path trains (fitReplicates). A NaN in one row fails
// the members whose replicate and feature subset reach it, and only those;
// and a column with more than 65,536 distinct values makes the builder's
// key sort take its third byte pass.
func TestForestFitMatchesReplicates(t *testing.T) {
	for _, k := range []int{2, 3} {
		X, y := forestData(rand.New(rand.NewSource(int64(k))), 300, 6, k)
		seed := int64(0)
		for _, div := range []Diversity{Bootstrap, RandomInit} {
			for _, maxSamples := range []float64{0, 0.37} {
				for _, maxFeatures := range []float64{0, 0.5} {
					for _, crit := range []tree.Criterion{tree.Gini, tree.Entropy} {
						for _, workers := range []int{1, 3} {
							seed++
							cfg := Config{M: 7, Diversity: div, MaxSamples: maxSamples, MaxFeatures: maxFeatures,
								Seed: seed, Workers: workers}
							base := tree.Config{MaxFeatures: -1, Criterion: crit, MinLeaf: 1 + int(seed%2)}
							t.Run(fmt.Sprintf("k=%d/%v/samples=%v/features=%v/%v/workers=%d", k, div, maxSamples, maxFeatures, crit, workers),
								func(t *testing.T) { checkForest(t, cfg, base, X, y) })
						}
					}
				}
			}
		}
	}

	t.Run("nan", func(t *testing.T) {
		X, y := forestData(rand.New(rand.NewSource(9)), 300, 6, 2)
		X.Set(137, 4, math.NaN())
		for _, workers := range []int{1, 3} {
			cfg := Config{M: 12, MaxSamples: 0.37, MaxFeatures: 0.5, Seed: 8, Workers: workers}
			factory, _ := recordingTrees(tree.Config{MaxFeatures: -1})
			cfg.New = factory
			_, errs, _ := fitReplicates(cfg, X, y)
			failed := 0
			for _, err := range errs {
				if err != nil {
					failed++
				}
			}
			if failed == 0 || failed == cfg.M {
				t.Fatalf("%d of %d replicates fail on the NaN row: the case shows nothing", failed, cfg.M)
			}
			checkForest(t, cfg, tree.Config{MaxFeatures: -1}, X, y)
		}
	})

	t.Run("third-radix-pass", func(t *testing.T) {
		// 70,000 distinct values in every column: keys need 17 bits. The
		// members draw one candidate per node, so most columns are first
		// sorted below the root, on segments of tens of thousands of rows.
		rng := rand.New(rand.NewSource(3))
		n, d := 70000, 3
		X := linalg.New(n, d)
		y := make([]int, n)
		for i := range n {
			for j := range d {
				X.Set(i, j, rng.NormFloat64())
			}
			if (X.At(i, 0)+X.At(i, 1) > 0) != (rng.Float64() < 0.15) {
				y[i] = 1
			}
		}
		for _, div := range []Diversity{Bootstrap, RandomInit} {
			cfg := Config{M: 3, Diversity: div, Seed: 11, Workers: 2}
			checkForest(t, cfg, tree.Config{MaxFeatures: 1, MaxDepth: 6}, X, y)
		}
	})
}

// forestFuzzValues is FuzzFitMatchesReference's alphabet: few enough
// values that rows repeat and ties are everywhere, zeros of both signs and
// both infinities.
var forestFuzzValues = [...]float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.5, math.Inf(1)}

// FuzzForestFitMatchesReplicates is TestForestFitMatchesReplicates over
// inputs nobody wrote down. Byte 0 holds the criterion (bit 0), the
// diversity (bit 1) and the class count k in [2, 3] (bit 2); byte 1
// MaxSamples (0, 0.37 or 0.8) and MaxFeatures (0 or 0.5); byte 2 the
// member count M in [1, 6] and the worker count in [1, 3]; byte 3 the
// member trees' MaxFeatures in [-1, 3], MinLeaf in [1, 2] and MaxDepth in
// [0, 3]; byte 4 the seed, byte 5 the width d in [1, 4] and byte 6 the row
// count n in [1, 64]; then n*d value bytes, row-major, indexing the
// alphabet, and n label bytes, each taken mod k. Bytes past the end read
// as 0.
func FuzzForestFitMatchesReplicates(f *testing.F) {
	f.Add([]byte{0, 0, 0x24, 0, 1, 3, 40})
	f.Add([]byte{1, 0x05, 0x15, 0x1d, 7, 2, 63, 3, 3, 2, 2, 5, 0, 1, 4, 4, 4, 2, 3})
	f.Add([]byte{6, 0x04, 0x33, 0x0a, 9, 1, 20, 2, 3, 2, 3, 0, 5, 1, 1})
	f.Add([]byte{3, 0x02, 0x2b, 0x22, 2, 3, 63, 0, 1, 2, 3, 4, 5, 5, 4, 3, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		k := 2 + (at(0)>>2)&1
		cfg := Config{
			Diversity:   Diversity((at(0) >> 1) & 1),
			MaxSamples:  []float64{0, 0.37, 0.8}[at(1)%3],
			MaxFeatures: []float64{0, 0.5}[(at(1)>>2)&1],
			M:           1 + at(2)%6,
			Workers:     1 + (at(2)>>3)%3,
			Seed:        int64(at(4)),
		}
		base := tree.Config{
			Criterion:   tree.Criterion(at(0) & 1),
			MaxFeatures: at(3)%5 - 1,
			MinLeaf:     1 + (at(3)>>3)&1,
			MaxDepth:    (at(3) >> 4) % 4,
		}
		d, n := 1+at(5)%4, 1+at(6)%64
		X := linalg.New(n, d)
		y := make([]int, n)
		for i := range n * d {
			X.Set(i/d, i%d, forestFuzzValues[at(7+i)%len(forestFuzzValues)])
		}
		for i := range y {
			y[i] = at(7+n*d+i) % k
		}
		checkForest(t, cfg, base, X, y)
	})
}
