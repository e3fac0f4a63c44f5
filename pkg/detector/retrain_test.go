package detector

import (
	"testing"

	"trusthmd/internal/gen"
	"trusthmd/pkg/dataset"
	"trusthmd/pkg/linalg"
)

func TestNewRetrainerValidation(t *testing.T) {
	if _, err := NewRetrainer(nil, 5); err == nil {
		t.Fatal("expected nil training set error")
	}
	if _, err := NewRetrainer(dataset.New(3), 5); err == nil {
		t.Fatal("expected empty training set error")
	}
	s := dvfsSplits(t)
	if _, err := NewRetrainer(s.Train, 0); err == nil {
		t.Fatal("expected quorum error")
	}
	if _, err := NewRetrainer(s.Train, 5, WithModel("bogus")); err == nil {
		t.Fatal("expected unknown model error")
	}
}

func TestRetrainerLifecycle(t *testing.T) {
	s := dvfsSplits(t)
	r, err := NewRetrainer(s.Train, 10, WithModel("rf"), WithEnsembleSize(15), WithSeed(30))
	if err != nil {
		t.Fatal(err)
	}
	if r.ShouldRetrain() || r.Pending() != 0 || r.Rounds() != 0 {
		t.Fatal("fresh retrainer state")
	}
	if _, err := r.Retrain(); err == nil {
		t.Fatal("expected no-forensics error")
	}
	baseSize := r.TrainingSize()

	var fs []Forensic
	for i := 0; i < 10; i++ {
		smp := s.Unknown.At(i)
		fs = append(fs, Forensic{Features: smp.Features, Label: smp.Label, App: smp.App})
	}
	if err := r.ReportForensics(fs); err != nil {
		t.Fatal(err)
	}
	if !r.ShouldRetrain() {
		t.Fatal("quorum reached but ShouldRetrain false")
	}
	d, err := r.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("nil detector")
	}
	if r.Pending() != 0 || r.Rounds() != 1 {
		t.Fatalf("post-retrain state: pending %d rounds %d", r.Pending(), r.Rounds())
	}
	if r.TrainingSize() != baseSize+10 {
		t.Fatalf("training size %d, want %d", r.TrainingSize(), baseSize+10)
	}
}

func TestRetrainerReportValidation(t *testing.T) {
	s := dvfsSplits(t)
	r, err := NewRetrainer(s.Train, 5, WithModel("rf"), WithEnsembleSize(5), WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ReportForensics([]Forensic{{Features: []float64{1, 2}, Label: 1, App: "x"}}); err == nil {
		t.Fatal("expected dimension error")
	}
	if err := r.ReportForensics([]Forensic{{Features: s.Unknown.At(0).Features, Label: 7, App: "x"}}); err == nil {
		t.Fatal("expected label error")
	}
}

// TestRetrainingAbsorbsZeroDay is the paper's feedback-loop claim end to
// end: a zero-day family with high entropy becomes classifiable (low
// entropy, correct label) after its forensics are folded into training.
func TestRetrainingAbsorbsZeroDay(t *testing.T) {
	splits, err := gen.DVFSWithSizes(32, gen.Sizes{Train: 1400, Test: 280, Unknown: 600})
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithModel("rf"), WithEnsembleSize(25), WithSeed(32)}
	before, err := New(splits.Train, opts...)
	if err != nil {
		t.Fatal(err)
	}

	// Split the unknown bucket's cryptojack family: half becomes analyst
	// forensics, half stays held out.
	var forensic, heldOut []dataset.Sample
	for i := 0; i < splits.Unknown.Len(); i++ {
		smp := splits.Unknown.At(i)
		if smp.App != "cryptojack_v2" {
			continue
		}
		// 3:1 forensic-to-held-out split: deployments accumulate forensics
		// over time, while evaluation needs only a modest held-out set.
		if len(forensic) < 3*(len(heldOut)+1) {
			forensic = append(forensic, smp)
		} else {
			heldOut = append(heldOut, smp)
		}
	}
	if len(forensic) < 10 || len(heldOut) < 10 {
		t.Fatalf("not enough cryptojack samples: %d/%d", len(forensic), len(heldOut))
	}

	entropyAndAcc := func(d *Detector) (float64, float64) {
		var hs []float64
		correct := 0
		for _, smp := range heldOut {
			r, err := d.Assess(smp.Features)
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, r.Entropy)
			if r.Prediction == smp.Label {
				correct++
			}
		}
		return linalg.Mean(hs), float64(correct) / float64(len(heldOut))
	}

	hBefore, _ := entropyAndAcc(before)

	r, err := NewRetrainer(splits.Train, len(forensic), opts...)
	if err != nil {
		t.Fatal(err)
	}
	fs := make([]Forensic, 0, len(forensic))
	for _, smp := range forensic {
		fs = append(fs, Forensic{Features: smp.Features, Label: smp.Label, App: smp.App})
	}
	if err := r.ReportForensics(fs); err != nil {
		t.Fatal(err)
	}
	after, err := r.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	hAfter, accAfter := entropyAndAcc(after)

	if hBefore < 0.3 {
		t.Fatalf("zero-day entropy before retraining %.3f should be high", hBefore)
	}
	if hAfter > 0.6*hBefore {
		t.Fatalf("retraining should substantially cut the family's entropy: %.3f -> %.3f", hBefore, hAfter)
	}
	if accAfter < 0.8 {
		t.Fatalf("retrained accuracy on the absorbed family %.3f", accAfter)
	}
	// The rest of the unknown bucket must still be flagged: retraining one
	// family must not silence the detector on others.
	var otherHs []float64
	for i := 0; i < splits.Unknown.Len(); i++ {
		smp := splits.Unknown.At(i)
		if smp.App == "cryptojack_v2" {
			continue
		}
		r, err := after.Assess(smp.Features)
		if err != nil {
			t.Fatal(err)
		}
		otherHs = append(otherHs, r.Entropy)
	}
	if linalg.Mean(otherHs) < 0.25 {
		t.Fatalf("other unknown families lost their entropy: %.3f", linalg.Mean(otherHs))
	}
}

// TestReportForensicsBatch covers the bulk forensic path a retraining
// controller drives from stored verdicts: the batch lands atomically and
// a malformed sample poisons nothing.
func TestReportForensicsBatch(t *testing.T) {
	s := dvfsSplits(t)
	r, err := NewRetrainer(s.Train, 5, WithModel("rf"), WithEnsembleSize(5), WithSeed(33))
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Forensic, 0, 6)
	for i := 0; i < 6; i++ {
		smp := s.Unknown.At(i)
		batch = append(batch, Forensic{Features: smp.Features, Label: smp.Label, App: "drift:edge-7"})
	}
	if err := r.ReportForensics(batch); err != nil {
		t.Fatal(err)
	}
	if r.Pending() != 6 || !r.ShouldRetrain() {
		t.Fatalf("pending %d after batch of 6", r.Pending())
	}

	// All-or-nothing: a bad sample mid-batch leaves pending untouched.
	bad := []Forensic{
		{Features: s.Unknown.At(6).Features, Label: 1, App: "ok"},
		{Features: []float64{1, 2}, Label: 1, App: "wrong-dim"},
	}
	if err := r.ReportForensics(bad); err == nil {
		t.Fatal("expected dimension error from malformed batch")
	}
	if r.Pending() != 6 {
		t.Fatalf("failed batch mutated pending: %d", r.Pending())
	}

	if _, err := r.Retrain(); err != nil {
		t.Fatal(err)
	}
	if r.Pending() != 0 || r.Rounds() != 1 {
		t.Fatalf("post-retrain state: pending %d rounds %d", r.Pending(), r.Rounds())
	}
}
