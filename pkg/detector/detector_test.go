package detector

import (
	"math"
	"strings"
	"testing"

	"trusthmd/internal/gen"
	"trusthmd/pkg/linalg"
	"trusthmd/pkg/model"
)

func dvfsSplits(t testing.TB) gen.Splits {
	t.Helper()
	s, err := gen.DVFSWithSizes(3, gen.Sizes{Train: 280, Test: 140, Unknown: 40})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func trainRF(t testing.TB, opts ...Option) (*Detector, gen.Splits) {
	t.Helper()
	s := dvfsSplits(t)
	d, err := New(s.Train, append([]Option{WithModel("rf"), WithEnsembleSize(11), WithSeed(1)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return d, s
}

func TestNewDefaultsAndAssess(t *testing.T) {
	d, s := trainRF(t)
	if d.Model() != "rf" || d.Threshold() != DefaultThreshold || d.Members() != 11 {
		t.Fatalf("detector state: model=%s threshold=%v members=%d", d.Model(), d.Threshold(), d.Members())
	}
	correct := 0
	for i := 0; i < s.Test.Len(); i++ {
		smp := s.Test.At(i)
		r, err := d.Assess(smp.Features)
		if err != nil {
			t.Fatal(err)
		}
		if r.Prediction == smp.Label {
			correct++
		}
		if r.Entropy < 0 || r.Entropy > 1 {
			t.Fatalf("entropy %v out of range", r.Entropy)
		}
		var sum float64
		for _, v := range r.VoteDist {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("vote dist sums to %v", sum)
		}
		if r.Entropy <= d.Threshold() && r.Decision == Reject {
			t.Fatal("confident prediction rejected")
		}
		if r.Entropy > d.Threshold() && r.Decision != Reject {
			t.Fatal("uncertain prediction accepted")
		}
		if r.Decomposition != nil {
			t.Fatal("decomposition present without WithDecomposition")
		}
	}
	if frac := float64(correct) / float64(s.Test.Len()); frac < 0.9 {
		t.Fatalf("test accuracy %v", frac)
	}
}

func TestOptionValidation(t *testing.T) {
	s := dvfsSplits(t)
	cases := map[string][]Option{
		"unknown model":  {WithModel("bogus")},
		"bad size":       {WithEnsembleSize(0)},
		"bad threshold":  {WithThreshold(-0.1)},
		"bad diversity":  {WithDiversity("chaos")},
		"bad maxsamples": {WithMaxSamples(1.5)},
		"bad pca":        {WithPCA(-1)},
	}
	for name, opts := range cases {
		if _, err := New(s.Train, opts...); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
	if _, err := New(nil); err == nil {
		t.Fatal("expected empty training set error")
	}
}

func TestRegistryExtension(t *testing.T) {
	// A new family plugs in through exported types only: a majority-class
	// stump, registered under a fresh name. TryRegister (tolerating the
	// leftover from an earlier -count run — the registry is package-global)
	// rather than Register, so the suite stays idempotent.
	err := TryRegister("test-stump", func(Params) model.Factory {
		return func(int64) model.Classifier { return &stump{} }
	}, &stump{})
	if err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
	found := false
	for _, m := range Models() {
		if m == "test-stump" {
			found = true
		}
	}
	if !found {
		t.Fatalf("registered family missing from Models(): %v", Models())
	}
	s := dvfsSplits(t)
	d, err := New(s.Train, WithModel("TEST-STUMP"), WithEnsembleSize(5), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.Assess(s.Test.At(0).Features)
	if err != nil {
		t.Fatal(err)
	}
	if r.Prediction != 0 && r.Prediction != 1 {
		t.Fatalf("stump prediction %d", r.Prediction)
	}
}

// stump predicts the majority class of its training labels.
type stump struct{ Class int }

func (s *stump) Fit(X *linalg.Matrix, y []int) error {
	ones := 0
	for _, lab := range y {
		if lab == 1 {
			ones++
		}
	}
	if 2*ones > len(y) {
		s.Class = 1
	}
	return nil
}

func (s *stump) Predict([]float64) int { return s.Class }

func TestModelsListsBuiltins(t *testing.T) {
	have := map[string]bool{}
	for _, m := range Models() {
		have[m] = true
	}
	for _, want := range []string{"rf", "lr", "svm", "nb", "knn"} {
		if !have[want] {
			t.Fatalf("builtin %q missing from registry: %v", want, Models())
		}
	}
}

func TestWithDecomposition(t *testing.T) {
	s := dvfsSplits(t)
	d, err := New(s.Train,
		WithModel("rf"), WithEnsembleSize(9), WithSeed(2),
		WithTreeLimits(0, 25), WithDecomposition(true))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := d.AssessDataset(s.Unknown)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Decomposition == nil {
			t.Fatalf("sample %d: missing decomposition", i)
		}
		dc := r.Decomposition
		if dc.Aleatoric < 0 || dc.Epistemic < 0 {
			t.Fatalf("sample %d: negative component %+v", i, dc)
		}
		if diff := dc.Total - dc.Aleatoric - dc.Epistemic; math.Abs(diff) > 1e-9 {
			t.Fatalf("sample %d: decomposition identity violated: %+v", i, dc)
		}
	}
}

func TestTruncatedMatchesFull(t *testing.T) {
	d, s := trainRF(t)
	x := s.Unknown.At(0).Features
	full, err := d.Assess(x)
	if err != nil {
		t.Fatal(err)
	}
	tFull, err := d.Truncated(11)
	if err != nil {
		t.Fatal(err)
	}
	r, err := tFull.Assess(x)
	if err != nil {
		t.Fatal(err)
	}
	if r.Entropy != full.Entropy || r.Prediction != full.Prediction {
		t.Fatal("full truncation must equal Assess")
	}
	t3, err := d.Truncated(3)
	if err != nil {
		t.Fatal(err)
	}
	if t3.Members() != 3 {
		t.Fatalf("truncated members %d", t3.Members())
	}
	if _, err := d.Truncated(0); err == nil {
		t.Fatal("expected range error")
	}
}

func TestWithOptionsRethreshold(t *testing.T) {
	d, s := trainRF(t)
	strict, err := d.WithOptions(WithThreshold(0))
	if err != nil {
		t.Fatal(err)
	}
	lax, err := d.WithOptions(WithThreshold(1))
	if err != nil {
		t.Fatal(err)
	}
	x := s.Unknown.At(0).Features
	rs, err := strict.Assess(x)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := lax.Assess(x)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Entropy != rl.Entropy {
		t.Fatal("threshold must not change the assessment")
	}
	if rs.Entropy > 0 && rs.Decision != Reject {
		t.Fatal("strict view must reject any uncertainty")
	}
	if rl.Decision == Reject {
		t.Fatal("lax view must accept everything")
	}
	if _, err := d.WithOptions(WithThreshold(-1)); err == nil {
		t.Fatal("expected validation error")
	}
	if _, err := d.WithOptions(WithDiversity("chaos")); err == nil {
		t.Fatal("expected option error to surface")
	}
	// Training-time options must not take effect without a refit.
	same, err := d.WithOptions(WithModel("lr"), WithEnsembleSize(99))
	if err != nil {
		t.Fatal(err)
	}
	if same.Model() != d.Model() || same.Members() != d.Members() {
		t.Fatalf("training-time options leaked into trained detector: %s/%d", same.Model(), same.Members())
	}
}

// TestPosteriorAndPredict reads the averaged member posterior (Eq. 3) as
// the entropy it carries, Decomposition.Total, and the majority-vote label
// as Result.Prediction: a decomposing detector gives the same prediction
// and vote entropy as a plain one.
func TestPosteriorAndPredict(t *testing.T) {
	d, s := trainRF(t)
	dd, err := d.WithOptions(WithDecomposition(true))
	if err != nil {
		t.Fatal(err)
	}
	x := s.Test.At(0).Features
	r, err := d.Assess(x)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := dd.Assess(x)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Decomposition == nil || rd.Decomposition.Total < 0 || rd.Decomposition.Total > 1+1e-12 {
		t.Fatalf("posterior entropy %+v outside [0, 1] bits", rd.Decomposition)
	}
	if rd.Prediction != r.Prediction || rd.Entropy != r.Entropy {
		t.Fatal("decomposing and plain Assess must agree")
	}
	if _, err := d.Assess([]float64{1, 2}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestSVMNonConvergenceDetection(t *testing.T) {
	s, err := gen.HPCWithSizes(5, gen.Sizes{Train: 2800, Test: 700, Unknown: 500})
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(s.Train, WithModel("svm"), WithEnsembleSize(3), WithSeed(5), WithSVMMaxObjective(0.3))
	if err == nil {
		t.Fatal("SVM should fail to converge on HPC data")
	}
	if !IsNoConvergence(err) {
		t.Fatalf("error %v should be detected as non-convergence", err)
	}
}

// TestInfoOptionsRoundTrip pins Info.Options as the bridge from a served
// snapshot back to training: a detector built with the reconstructed
// options reports an identical Info (and, with the same data and seed,
// identical decisions).
func TestInfoOptionsRoundTrip(t *testing.T) {
	s := dvfsSplits(t)
	d, err := New(s.Train,
		WithModel("rf"), WithEnsembleSize(9), WithPCA(6), WithSeed(21),
		WithThreshold(0.35), WithDiversity("random-init"), WithMaxSamples(0.8),
		WithDecomposition(true), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	info := d.Info()
	rebuilt, err := New(s.Train, info.Options()...)
	if err != nil {
		t.Fatal(err)
	}
	if got := rebuilt.Info(); got != info {
		t.Fatalf("Options() round trip diverged:\n got %+v\nwant %+v", got, info)
	}
	want, err := d.AssessDataset(s.Test)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rebuilt.AssessDataset(s.Test)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i].Decision != got[i].Decision || want[i].Entropy != got[i].Entropy {
			t.Fatalf("sample %d: rebuilt detector diverged", i)
		}
	}
}
