package ensemble

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"trusthmd/internal/core"
	"trusthmd/internal/ml/linear"
	"trusthmd/internal/ml/tree"
	"trusthmd/pkg/linalg"
	"trusthmd/pkg/model"
)

func blobs(rng *rand.Rand, n int, gap float64) (*linalg.Matrix, []int) {
	rows := make([][]float64, n)
	y := make([]int, n)
	for i := range rows {
		cls := i % 2
		cx := -gap
		if cls == 1 {
			cx = gap
		}
		rows[i] = []float64{cx + rng.NormFloat64()*0.7, rng.NormFloat64() * 0.7}
		y[i] = cls
	}
	return linalg.MustFromRows(rows), y
}

func treeFactory(seed int64) model.Classifier {
	return tree.New(tree.Config{MaxFeatures: 1, Seed: seed})
}

func lrFactory(seed int64) model.Classifier {
	return linear.NewLogistic(linear.LogisticConfig{Seed: seed, Epochs: 30})
}

// predict is the ensemble's plurality label on x: its Votes summarised by
// the estimator the trusted HMD uses.
func predict(t testing.TB, b *Bagging, x []float64) int {
	t.Helper()
	s, err := core.Estimator{}.Summarize(b.Votes(x))
	if err != nil {
		t.Fatal(err)
	}
	return s.Prediction
}

func TestFitPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := blobs(rng, 200, 3)
	b := New(Config{M: 15, New: treeFactory, Seed: 1})
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < X.Rows(); i++ {
		if predict(t, b, X.Row(i)) == y[i] {
			correct++
		}
	}
	if frac := float64(correct) / float64(X.Rows()); frac < 0.95 {
		t.Fatalf("accuracy %v", frac)
	}
	if b.Size() != 15 || len(b.Estimators()) != 15 {
		t.Fatalf("size %d", b.Size())
	}
	if b.classes != 2 {
		t.Fatalf("classes %d", b.classes)
	}
}

func TestVotesAndCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, y := blobs(rng, 100, 3)
	b := New(Config{M: 9, New: treeFactory, Seed: 2})
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	votes := b.Votes([]float64{0, 0})
	if len(votes) != 9 {
		t.Fatalf("%d votes", len(votes))
	}
	for _, v := range votes {
		if v != 0 && v != 1 {
			t.Fatalf("vote %d is not a class label", v)
		}
	}
}

func TestRandomInitDiversity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X, y := blobs(rng, 80, 3)
	b := New(Config{M: 5, New: lrFactory, Diversity: RandomInit, Seed: 5})
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if b.Size() != 5 {
		t.Fatalf("size %d", b.Size())
	}
	if Bootstrap.String() != "bootstrap" || RandomInit.String() != "random-init" || Diversity(9).String() == "" {
		t.Fatal("diversity strings")
	}
}

func TestConfigErrors(t *testing.T) {
	X := linalg.MustFromRows([][]float64{{1}, {2}})
	y := []int{0, 1}
	if err := New(Config{M: 0, New: treeFactory}).Fit(X, y); err == nil {
		t.Fatal("expected M error")
	}
	if err := New(Config{M: 3}).Fit(X, y); err == nil {
		t.Fatal("expected factory error")
	}
	if err := New(Config{M: 3, New: treeFactory}).Fit(linalg.New(0, 1), nil); err == nil {
		t.Fatal("expected empty error")
	}
	if err := New(Config{M: 3, New: treeFactory}).Fit(X, []int{0}); err == nil {
		t.Fatal("expected length error")
	}
}

type failingClassifier struct{ fail bool }

func (f *failingClassifier) Fit(X *linalg.Matrix, y []int) error {
	if f.fail {
		return errors.New("boom")
	}
	return nil
}
func (f *failingClassifier) Predict(x []float64) int { return 0 }

func TestMemberFitErrorAborts(t *testing.T) {
	X := linalg.MustFromRows([][]float64{{1}, {2}})
	y := []int{0, 1}
	b := New(Config{M: 3, New: func(seed int64) model.Classifier {
		return &failingClassifier{fail: seed%2 == 0 || true}
	}, Seed: 1})
	if err := b.Fit(X, y); err == nil {
		t.Fatal("expected member error")
	}
}

func TestAllMembersFail(t *testing.T) {
	X := linalg.MustFromRows([][]float64{{1}, {2}})
	y := []int{0, 1}
	b := New(Config{M: 2, New: func(seed int64) model.Classifier {
		return &failingClassifier{fail: true}
	}, Seed: 1})
	if err := b.Fit(X, y); err == nil {
		t.Fatal("expected all-failed error")
	}
	if _, err := b.Truncated(1); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("failed fit left a usable ensemble: %v", err)
	}
}

func TestUnfittedPanics(t *testing.T) {
	b := New(Config{M: 3, New: treeFactory})
	for name, fn := range map[string]func(){
		"votes":      func() { b.Votes([]float64{1}) },
		"estimators": func() { b.Estimators() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
	if _, err := b.Truncated(1); err == nil {
		t.Fatal("expected unfitted error")
	}
}

func TestTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	X, y := blobs(rng, 80, 3)
	b := New(Config{M: 10, New: treeFactory, Seed: 6})
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	tr, err := b.Truncated(4)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 4 {
		t.Fatalf("truncated size %d", tr.Size())
	}
	// Prefix members must be identical objects.
	for i := 0; i < 4; i++ {
		if tr.Estimators()[i] != b.Estimators()[i] {
			t.Fatal("truncation must share members")
		}
	}
	if _, err := b.Truncated(0); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := b.Truncated(11); err == nil {
		t.Fatal("expected range error")
	}
}

func TestDeterminismAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	X, y := blobs(rng, 100, 1.5)
	run := func(workers int) []int {
		b := New(Config{M: 8, New: treeFactory, Seed: 7, Workers: workers})
		if err := b.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		out := make([]int, 0, 50)
		for gx := -2.0; gx <= 2.0; gx += 0.1 {
			out = append(out, predict(t, b, []float64{gx, 0.2}))
		}
		return out
	}
	a, c := run(1), run(8)
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("ensemble must be deterministic regardless of workers")
		}
	}
}

func TestResample(t *testing.T) {
	X := linalg.MustFromRows([][]float64{{1}, {2}, {3}, {4}})
	y := []int{0, 0, 1, 1}
	rng := rand.New(rand.NewSource(1))
	bx, by := ResampleN(X, y, 6, rng)
	if bx.Rows() != 6 || len(by) != 6 {
		t.Fatal("resample size")
	}
	// Every resampled row must be one of the originals with matching label.
	for i := 0; i < 6; i++ {
		v := bx.At(i, 0)
		found := false
		for j := 0; j < 4; j++ {
			if X.At(j, 0) == v && y[j] == by[i] {
				found = true
			}
		}
		if !found {
			t.Fatalf("resampled row %d (%v,%d) not in original", i, v, by[i])
		}
	}
}

// Property: the one-row AccumulateVotes walk tallies exactly the votes of
// the reference Votes walk, the counts sum to the ensemble size, and the
// summarised prediction is a plurality vote.
func TestVoteInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	X, y := blobs(rng, 60, 2)
	b := New(Config{M: 7, New: treeFactory, Seed: 8})
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	dim, err := b.MaxMemberDim(2)
	if err != nil {
		t.Fatal(err)
	}
	votes, input := make([]int, 1), make([]float64, dim)
	f := func(a, c float64) bool {
		x := []float64{math.Mod(a, 6), math.Mod(c, 6)}
		counts := make([]int, 2)
		if err := b.AccumulateVotes(linalg.MustFromRows([][]float64{x}), nil, counts, 2, 0, b.Size(), votes, input); err != nil {
			t.Fatal(err)
		}
		want := make([]int, 2)
		for _, v := range b.Votes(x) {
			want[v]++
		}
		if counts[0] != want[0] || counts[1] != want[1] || counts[0]+counts[1] != b.Size() {
			return false
		}
		pred := predict(t, b, x)
		return counts[pred] >= counts[1-pred]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxSamplesValidation(t *testing.T) {
	X := linalg.MustFromRows([][]float64{{1}, {2}})
	y := []int{0, 1}
	if err := New(Config{M: 2, New: treeFactory, MaxSamples: -0.5}).Fit(X, y); err == nil {
		t.Fatal("expected max samples error")
	}
	if err := New(Config{M: 2, New: treeFactory, MaxSamples: 1.5}).Fit(X, y); err == nil {
		t.Fatal("expected max samples error")
	}
	if err := New(Config{M: 2, New: treeFactory, MaxFeatures: -0.1}).Fit(X, y); err == nil {
		t.Fatal("expected max features error")
	}
	if err := New(Config{M: 2, New: treeFactory, MaxFeatures: 1.1}).Fit(X, y); err == nil {
		t.Fatal("expected max features error")
	}
}

func TestMaxSamplesShrinksReplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	X, y := blobs(rng, 100, 3)
	b := New(Config{M: 5, New: treeFactory, MaxSamples: 0.2, Seed: 10})
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if b.Size() != 5 {
		t.Fatal("fit failed")
	}
	// Tiny MaxSamples floors at one sample.
	b2 := New(Config{M: 3, New: treeFactory, MaxSamples: 1e-9, Seed: 10})
	if err := b2.Fit(X, y); err != nil {
		t.Fatal(err)
	}
}

func TestMaxFeaturesSubspaces(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	X, y := blobs(rng, 150, 3)
	b := New(Config{M: 9, New: lrFactory, MaxFeatures: 0.5, Seed: 11})
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// Subspaced members still classify the easy blobs correctly overall.
	correct := 0
	for i := 0; i < X.Rows(); i++ {
		if predict(t, b, X.Row(i)) == y[i] {
			correct++
		}
	}
	if frac := float64(correct) / float64(X.Rows()); frac < 0.9 {
		t.Fatalf("subspace ensemble accuracy %v", frac)
	}
	// Truncation carries the feature subsets along.
	tr, err := b.Truncated(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := predict(t, tr, X.Row(0)); got != 0 && got != 1 {
		t.Fatal("truncated subspace ensemble must predict")
	}
}

func TestMemberProbas(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	X, y := blobs(rng, 100, 3)
	// Tree members implement model.ProbClassifier.
	b := New(Config{M: 5, New: treeFactory, Seed: 12})
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	probs := b.MemberProbas([]float64{-3, 0}, 2)
	if len(probs) != 5 {
		t.Fatalf("%d member posteriors", len(probs))
	}
	for _, p := range probs {
		if len(p) != 2 {
			t.Fatalf("posterior %v", p)
		}
		var sum float64
		for _, v := range p {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("posterior sums to %v", sum)
		}
	}
	// SVM members fall back to one-hot votes.
	bs := New(Config{M: 3, New: func(seed int64) model.Classifier {
		return linear.NewSVM(linear.SVMConfig{Seed: seed, Epochs: 40})
	}, Seed: 12})
	if err := bs.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for _, p := range bs.MemberProbas([]float64{3, 0}, 2) {
		ones := 0
		for _, v := range p {
			if v == 1 {
				ones++
			} else if v != 0 {
				t.Fatalf("hard member posterior %v should be one-hot", p)
			}
		}
		if ones != 1 {
			t.Fatalf("one-hot posterior %v", p)
		}
	}
	// Unfitted panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		New(Config{M: 1, New: treeFactory}).MemberProbas([]float64{0, 0}, 2)
	}()
}

// TestMemberProbasIgnoresDecodedClasses: the class count a gob carries
// sizes nothing at inference. A blob claiming -1 classes decodes, and
// MemberProbas still returns posteriors as wide as its caller asks instead
// of panicking in makeslice.
func TestMemberProbasIgnoresDecodedClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	X, y := blobs(rng, 60, 3)
	b := New(Config{M: 3, New: treeFactory, Seed: 13})
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	b.classes = -1
	blob, err := b.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var back Bagging
	if err := back.GobDecode(blob); err != nil {
		t.Fatal(err)
	}
	for m, p := range back.MemberProbas(X.Row(0), 2) {
		if len(p) != 2 {
			t.Fatalf("member %d posterior %v, want 2 classes", m, p)
		}
	}
}
