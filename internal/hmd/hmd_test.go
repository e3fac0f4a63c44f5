package hmd

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"trusthmd/internal/ensemble"
	"trusthmd/internal/gen"
	"trusthmd/internal/ml/linear"
	"trusthmd/internal/ml/tree"
	"trusthmd/internal/stats"
	"trusthmd/pkg/dataset"
	"trusthmd/pkg/linalg"
	"trusthmd/pkg/model"
)

func dvfsSplits(t *testing.T) gen.Splits {
	t.Helper()
	s, err := gen.DVFSWithSizes(3, gen.Sizes{Train: 280, Test: 140, Unknown: 40})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func rfFactory(seed int64) model.Classifier {
	return tree.New(tree.Config{MaxFeatures: -1, Seed: seed})
}

func lrFactory(seed int64) model.Classifier {
	return linear.NewLogistic(linear.LogisticConfig{Seed: seed, Epochs: 20, Batch: 16})
}

func TestTrainPredictAssess(t *testing.T) {
	s := dvfsSplits(t)
	p, err := Train(s.Train, Config{NewMember: rfFactory, M: 11, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < s.Test.Len(); i++ {
		smp := s.Test.At(i)
		a, err := p.Assess(smp.Features)
		if err != nil {
			t.Fatal(err)
		}
		if a.Prediction == smp.Label {
			correct++
		}
		if a.Entropy < 0 || a.Entropy > 1 {
			t.Fatalf("entropy %v out of range", a.Entropy)
		}
		var sum float64
		for _, v := range a.VoteDist {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("vote dist sums to %v", sum)
		}
	}
	if frac := float64(correct) / float64(s.Test.Len()); frac < 0.9 {
		t.Fatalf("test accuracy %v", frac)
	}
}

func TestTrainWithPCA(t *testing.T) {
	s := dvfsSplits(t)
	p, err := Train(s.Train, Config{NewMember: rfFactory, M: 7, Seed: 2, PCAComponents: 5})
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Assess(s.Test.At(0).Features)
	if err != nil {
		t.Fatal(err)
	}
	if a.Entropy < 0 {
		t.Fatal("bad entropy")
	}
	// PCA with too many components errors.
	if _, err := Train(s.Train, Config{NewMember: rfFactory, M: 3, PCAComponents: 1000}); err == nil {
		t.Fatal("expected pca error")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, Config{NewMember: rfFactory}); err == nil {
		t.Fatal("expected nil dataset error")
	}
	if _, err := Train(dataset.New(2), Config{NewMember: rfFactory}); err == nil {
		t.Fatal("expected empty dataset error")
	}
	s := dvfsSplits(t)
	if _, err := Train(s.Train, Config{}); err == nil {
		t.Fatal("expected missing factory error")
	}
}

// TestProjectBatchMatchesProject pins the batch projection stage to the
// per-vector reference: row i of ProjectRowsScratch is bit-identical to
// Project of row i, with and without a PCA stage.
func TestProjectBatchMatchesProject(t *testing.T) {
	s := dvfsSplits(t)
	rows := make([][]float64, s.Test.Len())
	for i := range rows {
		rows[i] = s.Test.At(i).Features
	}
	for _, pcaK := range []int{0, 5} {
		p, err := Train(s.Train, Config{NewMember: rfFactory, M: 3, Seed: 3, PCAComponents: pcaK})
		if err != nil {
			t.Fatal(err)
		}
		Z, err := p.ProjectRowsScratch(rows, linalg.New(0, 0), linalg.New(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range rows {
			z, err := p.Project(x)
			if err != nil {
				t.Fatal(err)
			}
			row := Z.Row(i)
			if len(row) != len(z) {
				t.Fatalf("pca=%d sample %d: dim %d vs %d", pcaK, i, len(row), len(z))
			}
			for j := range z {
				if z[j] != row[j] {
					t.Fatalf("pca=%d sample %d feature %d: batch %v vs vec %v", pcaK, i, j, row[j], z[j])
				}
			}
		}
	}
}

// TestPosterior pins the averaged member posterior of Eq. 3 (ablation A2's
// quantity) to Decompose's Total bit for bit: the mean of the members'
// posteriors, summed in member order and scaled by 1/M, is a distribution,
// and its entropy is exactly the decomposition's Total.
func TestPosterior(t *testing.T) {
	s := dvfsSplits(t)
	for name, cfg := range map[string]Config{
		"rf": {NewMember: rfFactory, M: 9, Seed: 5},
		"lr": {NewMember: lrFactory, M: 9, Seed: 5, MaxFeatures: 0.5},
	} {
		p, err := Train(s.Train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, ds := range []*dataset.Dataset{s.Test, s.Unknown} {
			for i := 0; i < ds.Len(); i++ {
				z, err := p.Project(ds.At(i).Features)
				if err != nil {
					t.Fatal(err)
				}
				probas := p.ens.MemberProbas(z, 2)
				mean := make([]float64, len(probas[0]))
				for _, pm := range probas {
					for j, v := range pm {
						mean[j] += v
					}
				}
				var sum float64
				for j := range mean {
					mean[j] *= 1 / float64(len(probas))
					sum += mean[j]
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Fatalf("%s row %d: posterior sums to %v", name, i, sum)
				}
				want, err := stats.Entropy(mean)
				if err != nil {
					t.Fatal(err)
				}
				dec, err := p.Decompose(z)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(dec.Total) != math.Float64bits(want) {
					t.Fatalf("%s row %d: Total %v, posterior entropy %v", name, i, dec.Total, want)
				}
			}
		}
	}
}

// TestSummarizeCountsRejects: a histogram that is not Members() votes over
// the two classes is an error, never a panic or a wider assessment.
func TestSummarizeCountsRejects(t *testing.T) {
	s := dvfsSplits(t)
	p, err := Train(s.Train, Config{NewMember: rfFactory, M: 5, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for name, counts := range map[string][]int{
		"third class":   {2, 2, 1},
		"short turnout": {3, 1},
		"negative":      {6, -1},
	} {
		a, err := p.SummarizeCounts(counts, make([]float64, len(counts)))
		if err == nil {
			t.Fatalf("%s: %v accepted as %+v", name, counts, a)
		}
	}
}

func TestTruncated(t *testing.T) {
	s := dvfsSplits(t)
	p, err := Train(s.Train, Config{NewMember: rfFactory, M: 20, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	x := s.Unknown.At(0).Features
	t5, err := p.Truncated(5)
	if err != nil {
		t.Fatal(err)
	}
	a5, err := t5.Assess(x)
	if err != nil {
		t.Fatal(err)
	}
	tFull, err := p.Truncated(20)
	if err != nil {
		t.Fatal(err)
	}
	aFull, err := tFull.Assess(x)
	if err != nil {
		t.Fatal(err)
	}
	full, err := p.Assess(x)
	if err != nil {
		t.Fatal(err)
	}
	if aFull.Entropy != full.Entropy || aFull.Prediction != full.Prediction {
		t.Fatal("full truncation must equal Assess")
	}
	if a5.Entropy < 0 || a5.Entropy > 1 {
		t.Fatal("bad truncated entropy")
	}
	if _, err := p.Truncated(0); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := p.Truncated(21); err == nil {
		t.Fatal("expected range error")
	}
}

func TestDimensionMismatch(t *testing.T) {
	s := dvfsSplits(t)
	p, err := Train(s.Train, Config{NewMember: rfFactory, M: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Project([]float64{1, 2}); err == nil {
		t.Fatal("expected dimension error")
	}
	if _, err := p.Assess([]float64{1}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestSVMNonConvergencePropagates(t *testing.T) {
	// Label-noise data: SVM with a strict objective must fail to converge.
	rng := rand.New(rand.NewSource(8))
	d := dataset.New(2)
	for i := 0; i < 200; i++ {
		if err := d.Add(dataset.Sample{
			Features: []float64{rng.NormFloat64(), rng.NormFloat64()},
			Label:    i % 2,
			App:      "noise",
		}); err != nil {
			t.Fatal(err)
		}
	}
	svm := func(seed int64) model.Classifier {
		return linear.NewSVM(linear.SVMConfig{Seed: seed, Epochs: 100, MaxObjective: 0.2})
	}
	_, err := Train(d, Config{NewMember: svm, M: 3, Seed: 8})
	if err == nil {
		t.Fatal("expected non-convergence")
	}
	var nc *linear.ErrNoConvergence
	if !errors.As(err, &nc) {
		t.Fatalf("error %v should wrap linear.ErrNoConvergence", err)
	}
}

func TestEnsembleAccessor(t *testing.T) {
	s := dvfsSplits(t)
	p, err := Train(s.Train, Config{NewMember: rfFactory, M: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if p.Ensemble().Size() != 5 || p.Members() != 5 {
		t.Fatal("ensemble accessor")
	}
}

func TestDiversityModes(t *testing.T) {
	s := dvfsSplits(t)
	for _, mode := range []ensemble.Diversity{ensemble.Bootstrap, ensemble.RandomInit} {
		p, err := Train(s.Train, Config{NewMember: lrFactory, M: 5, Seed: 10, Diversity: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if _, err := p.Assess(s.Test.At(0).Features); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPipelineGobRoundTrip(t *testing.T) {
	s := dvfsSplits(t)
	p, err := Train(s.Train, Config{NewMember: rfFactory, M: 7, Seed: 11, PCAComponents: 6})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := p.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var back Pipeline
	if err := back.GobDecode(blob); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Test.Len(); i++ {
		x := s.Test.At(i).Features
		a, err := p.Assess(x)
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.Assess(x)
		if err != nil {
			t.Fatal(err)
		}
		if a.Prediction != b.Prediction || a.Entropy != b.Entropy {
			t.Fatalf("sample %d: decoded pipeline diverged", i)
		}
	}
	if back.Members() != p.Members() {
		t.Fatal("member count lost in round trip")
	}
}
