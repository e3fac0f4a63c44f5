package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestROCPerfectSeparation(t *testing.T) {
	yTrue := []int{0, 0, 1, 1}
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	roc, err := ROC(yTrue, scores)
	if err != nil {
		t.Fatal(err)
	}
	// Curve must pass through (0,1): all positives found before any FP.
	found := false
	for _, p := range roc {
		if p.FPR == 0 && p.TPR == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("perfect classifier ROC missing (0,1): %+v", roc)
	}
	auc, err := AUC(yTrue, scores)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-1) > 1e-12 {
		t.Fatalf("AUC %v, want 1", auc)
	}
}

func TestAUCRandomScoresNearHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 4000
	yTrue := make([]int, n)
	scores := make([]float64, n)
	for i := range yTrue {
		yTrue[i] = rng.Intn(2)
		scores[i] = rng.Float64()
	}
	auc, err := AUC(yTrue, scores)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-0.5) > 0.05 {
		t.Fatalf("random AUC %v, want ~0.5", auc)
	}
}

func TestAUCInverted(t *testing.T) {
	yTrue := []int{0, 0, 1, 1}
	scores := []float64{0.9, 0.8, 0.2, 0.1} // anti-correlated
	auc, err := AUC(yTrue, scores)
	if err != nil {
		t.Fatal(err)
	}
	if auc > 1e-12 {
		t.Fatalf("inverted AUC %v, want 0", auc)
	}
}

func TestROCTiedScores(t *testing.T) {
	yTrue := []int{1, 0, 1, 0}
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	roc, err := ROC(yTrue, scores)
	if err != nil {
		t.Fatal(err)
	}
	// All ties collapse to a single diagonal step.
	last := roc[len(roc)-1]
	if last.TPR != 1 || last.FPR != 1 {
		t.Fatalf("last point %+v", last)
	}
	if len(roc) != 2 {
		t.Fatalf("tied scores should give 2 points, got %d", len(roc))
	}
	auc, err := AUC(yTrue, scores)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-0.5) > 1e-12 {
		t.Fatalf("tied AUC %v, want 0.5", auc)
	}
}

func TestROCErrors(t *testing.T) {
	if _, err := ROC(nil, nil); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := ROC([]int{1}, []float64{1, 2}); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := ROC([]int{2, 0}, []float64{1, 2}); err == nil {
		t.Fatal("expected label error")
	}
	if _, err := ROC([]int{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("expected single-class error")
	}
	if _, err := ROC([]int{1, 0}, []float64{math.NaN(), 2}); err == nil {
		t.Fatal("expected NaN error")
	}
}

func TestAUCRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(60)
		yTrue := make([]int, n)
		scores := make([]float64, n)
		for i := range yTrue {
			yTrue[i] = rng.Intn(2)
			scores[i] = rng.NormFloat64()
		}
		yTrue[0], yTrue[1] = 0, 1 // both classes guaranteed
		auc, err := AUC(yTrue, scores)
		if err != nil {
			return false
		}
		return auc >= -1e-12 && auc <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
