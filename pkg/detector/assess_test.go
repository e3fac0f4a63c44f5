package detector

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"trusthmd/internal/core"
	"trusthmd/pkg/dataset"
	"trusthmd/pkg/linalg"
	"trusthmd/pkg/model"
)

// reference assesses x on hmd's allocating reference walk — the vector
// Project, the plain Votes histogram and (for decomposing detectors) the
// split of the members' posteriors — and applies the detector's threshold.
// It shares no buffer, kernel or batch shape with the assess core.
func reference(t *testing.T, d *Detector, x []float64) Result {
	t.Helper()
	z, err := d.pipe.Project(x)
	if err != nil {
		t.Fatal(err)
	}
	want := Result{}
	a, err := d.pipe.AssessProjected(z)
	if err != nil {
		t.Fatal(err)
	}
	if d.cfg.decompose {
		dc, err := core.Decompose(d.pipe.Ensemble().MemberProbas(z, 2))
		if err != nil {
			t.Fatal(err)
		}
		want.Decomposition = (*Decomposition)(&dc)
	}
	decision, err := core.Rejector{Threshold: d.cfg.threshold}.Decide(a.Prediction, a.Entropy)
	if err != nil {
		t.Fatal(err)
	}
	want.Prediction, want.Entropy, want.VoteDist, want.Decision = a.Prediction, a.Entropy, a.VoteDist, Decision(decision)
	return want
}

// sameBits reports the first field in which got differs from want, to the
// bit; "" means identical.
func sameBits(got, want Result) string {
	if got.Prediction != want.Prediction {
		return fmt.Sprintf("prediction %d != %d", got.Prediction, want.Prediction)
	}
	if math.Float64bits(got.Entropy) != math.Float64bits(want.Entropy) {
		return fmt.Sprintf("entropy %v != %v", got.Entropy, want.Entropy)
	}
	if got.Decision != want.Decision {
		return fmt.Sprintf("decision %v != %v", got.Decision, want.Decision)
	}
	if len(got.VoteDist) != len(want.VoteDist) {
		return fmt.Sprintf("vote dist len %d != %d", len(got.VoteDist), len(want.VoteDist))
	}
	for j := range want.VoteDist {
		if math.Float64bits(got.VoteDist[j]) != math.Float64bits(want.VoteDist[j]) {
			return fmt.Sprintf("vote dist[%d] %v != %v", j, got.VoteDist[j], want.VoteDist[j])
		}
	}
	if (got.Decomposition == nil) != (want.Decomposition == nil) {
		return "decomposition presence differs"
	}
	if want.Decomposition != nil && *got.Decomposition != *want.Decomposition {
		return fmt.Sprintf("decomposition %+v != %+v", *got.Decomposition, *want.Decomposition)
	}
	return ""
}

// TestEntryPointsMatchReference is the equivalence contract of the assess
// core: every public entry point, over every walk the core can choose
// (lone row, row walk over feature subsets, 8-lane and 32-row tree kernels
// on either side of the transpose threshold, the decomposing walk, a
// truncated view), returns results bit-identical to the hmd reference.
// The workers axis is the number of goroutines sweeping the entry points
// at once on the shared detector — the only parallelism assessment has.
// Each worker keeps one scratch across every case, so it is also regrown,
// shrunk and reshaped between calls.
func TestEntryPointsMatchReference(t *testing.T) {
	s := dvfsSplits(t)
	X := make([][]float64, 0, 100)
	for i := 0; i < 70; i++ {
		X = append(X, s.Test.At(i).Features)
	}
	for i := 0; i < 30; i++ { // zero-day rows: high-entropy votes, rejections
		X = append(X, s.Unknown.At(i).Features)
	}
	ds := dataset.New(len(X[0]))
	for _, x := range X {
		if err := ds.Add(dataset.Sample{Features: x}); err != nil {
			t.Fatal(err)
		}
	}

	var scratches [4]BatchScratch
	for _, family := range []struct {
		name string
		opts []Option
	}{
		{"rf", []Option{WithModel("rf")}},
		{"lr-subspaces", []Option{WithModel("lr"), WithMaxFeatures(0.45)}},
		{"knn-pca", []Option{WithModel("knn"), WithPCA(6)}},
	} {
		trained, err := New(s.Train, append([]Option{WithEnsembleSize(9), WithSeed(4)}, family.opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		view, err := trained.Truncated(5)
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range []struct {
			name string
			det  *Detector
		}{{"full", trained}, {"truncated", view}} {
			for _, decompose := range []bool{false, true} {
				d, err := base.det.WithOptions(WithDecomposition(decompose))
				if err != nil {
					t.Fatal(err)
				}
				want := make([]Result, len(X))
				for i, x := range X {
					want[i] = reference(t, d, x)
				}
				for _, workers := range []int{1, len(scratches)} {
					name := fmt.Sprintf("%s/%s/decompose=%v/workers=%d", family.name, base.name, decompose, workers)
					t.Run(name, func(t *testing.T) {
						errs := make([]error, workers)
						var wg sync.WaitGroup
						for w := range errs {
							wg.Add(1)
							go func() {
								defer wg.Done()
								errs[w] = sweepEntryPoints(d, &scratches[w], X, ds, want)
							}()
						}
						wg.Wait()
						if err := errors.Join(errs...); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
}

// sweepEntryPoints runs X through every entry point of d — row by row,
// in batches on either side of the transpose threshold, and as a dataset —
// and reports the first result that differs from want by a bit.
func sweepEntryPoints(d *Detector, sc *BatchScratch, X [][]float64, ds *dataset.Dataset, want []Result) error {
	check := func(entry string, got, want []Result, err error) error {
		if err == nil && len(got) != len(want) {
			err = fmt.Errorf("%d results, want %d", len(got), len(want))
		}
		if err != nil {
			return fmt.Errorf("%s: %w", entry, err)
		}
		for i := range got {
			if diff := sameBits(got[i], want[i]); diff != "" {
				return fmt.Errorf("%s row %d: %s", entry, i, diff)
			}
		}
		return nil
	}
	for i, x := range X {
		got, err := d.Assess(x)
		if err := check(fmt.Sprintf("Assess(row %d)", i), []Result{got}, want[i:i+1], err); err != nil {
			return err
		}
		got, err = d.AssessInto(sc, x)
		if err := check(fmt.Sprintf("AssessInto(row %d)", i), []Result{got}, want[i:i+1], err); err != nil {
			return err
		}
	}
	for _, n := range []int{1, 2, 31, 32, 33, 100} {
		got, err := d.AssessBatch(X[:n])
		if err := check(fmt.Sprintf("AssessBatch(%d)", n), got, want[:n], err); err != nil {
			return err
		}
		got, err = d.AssessBatchInto(sc, X[:n])
		if err := check(fmt.Sprintf("AssessBatchInto(%d)", n), got, want[:n], err); err != nil {
			return err
		}
	}
	got, err := d.AssessDataset(ds)
	return check("AssessDataset", got, want, err)
}

// fixedVote is a classifier family whose members ignore their input and
// vote one fixed label each — including labels no binary histogram holds.
type fixedVote struct{ Label int }

func (f *fixedVote) Fit(*linalg.Matrix, []int) error { return nil }
func (f *fixedVote) Predict([]float64) int           { return f.Label }

// registerFixedVote registers a family whose members each pick one of
// labels by their seed — deterministic for a fixed WithSeed, whatever
// order the ensemble fits them in. TryRegister tolerates the leftover of
// an earlier -count run: the registry is package-global.
func registerFixedVote(t *testing.T, name string, labels []int) {
	t.Helper()
	err := TryRegister(name, func(Params) model.Factory {
		return func(seed int64) model.Classifier {
			return &fixedVote{Label: labels[int(uint64(seed)%uint64(len(labels)))]}
		}
	}, &fixedVote{})
	if err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
}

// TestOutOfRangeVotesFail: a member vote outside the two classes — a
// third class, or a negative label — fails every entry point, over the
// lone-row walk and a batch, for plain and decomposing detectors alike.
func TestOutOfRangeVotesFail(t *testing.T) {
	s := dvfsSplits(t)
	X := make([][]float64, 40)
	for i := range X {
		X[i] = s.Test.At(i).Features
	}
	registerFixedVote(t, "test-third-class", []int{0, 1, 2})
	registerFixedVote(t, "test-negative", []int{0, 1, -1})

	var sc BatchScratch
	for _, family := range []struct{ name, vote string }{
		{"test-third-class", "vote 2 "},
		{"test-negative", "vote -1 "},
	} {
		trained, err := New(s.Train, WithModel(family.name), WithEnsembleSize(9), WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, decompose := range []bool{false, true} {
			d, err := trained.WithOptions(WithDecomposition(decompose))
			if err != nil {
				t.Fatal(err)
			}
			for entry, assess := range map[string]func() error{
				"Assess":             func() error { _, err := d.Assess(X[0]); return err },
				"AssessInto":         func() error { _, err := d.AssessInto(&sc, X[0]); return err },
				"AssessBatch(1)":     func() error { _, err := d.AssessBatch(X[:1]); return err },
				"AssessBatch":        func() error { _, err := d.AssessBatch(X); return err },
				"AssessBatchInto(1)": func() error { _, err := d.AssessBatchInto(&sc, X[:1]); return err },
				"AssessBatchInto":    func() error { _, err := d.AssessBatchInto(&sc, X); return err },
			} {
				if err := assess(); err == nil || !strings.Contains(err.Error(), family.vote) {
					t.Fatalf("%s decompose=%v %s: error %v, want one naming the %q", family.name, decompose, entry, err, family.vote)
				}
			}
		}
	}
}
