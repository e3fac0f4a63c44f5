package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfusionBasics(t *testing.T) {
	yTrue := []int{1, 1, 0, 0, 1, 0}
	yPred := []int{1, 0, 0, 1, 1, 0}
	c, err := NewConfusion(yTrue, yPred)
	if err != nil {
		t.Fatal(err)
	}
	if c.TP != 2 || c.FN != 1 || c.FP != 1 || c.TN != 2 {
		t.Fatalf("confusion %+v", c)
	}
	if c.Total() != 6 {
		t.Fatalf("total %d", c.Total())
	}
	if math.Abs(c.Accuracy()-4.0/6) > 1e-12 {
		t.Fatalf("acc %v", c.Accuracy())
	}
	if math.Abs(c.Precision()-2.0/3) > 1e-12 {
		t.Fatalf("prec %v", c.Precision())
	}
	if math.Abs(c.Recall()-2.0/3) > 1e-12 {
		t.Fatalf("rec %v", c.Recall())
	}
	if math.Abs(c.F1()-2.0/3) > 1e-12 {
		t.Fatalf("f1 %v", c.F1())
	}
	if c.String() == "" {
		t.Fatal("empty string")
	}
}

func TestConfusionEdgeCases(t *testing.T) {
	var c Confusion
	if c.Accuracy() != 0 || c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 {
		t.Fatal("empty confusion should score zero everywhere")
	}
	// All negative ground truth, all negative predictions.
	c2, err := NewConfusion([]int{0, 0}, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Precision() != 0 || c2.Recall() != 0 {
		t.Fatal("degenerate precision/recall should be 0")
	}
	if c2.Accuracy() != 1 {
		t.Fatal("accuracy should be 1")
	}
}

func TestConfusionErrors(t *testing.T) {
	if _, err := NewConfusion([]int{1}, []int{1, 0}); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := NewConfusion([]int{2}, []int{1}); err == nil {
		t.Fatal("expected label error")
	}
	var c Confusion
	if err := c.Observe(0, 3); err == nil {
		t.Fatal("expected label error")
	}
}

func TestScore(t *testing.T) {
	rep, err := Score([]int{1, 0, 1, 0}, []int{1, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if rep.F1 != 1 || rep.Accuracy != 1 || rep.N != 4 {
		t.Fatalf("report %+v", rep)
	}
	if _, err := Score(nil, nil); err == nil {
		t.Fatal("expected empty error")
	}
}

func TestScoreAccepted(t *testing.T) {
	yTrue := []int{1, 0, 1, 0}
	yPred := []int{0, 0, 1, 1} // errors at 0 and 3
	accepted := []bool{false, true, true, false}
	rep, rej, err := ScoreAccepted(yTrue, yPred, accepted)
	if err != nil {
		t.Fatal(err)
	}
	if rej != 0.5 {
		t.Fatalf("rejected %v", rej)
	}
	if rep.Accuracy != 1 || rep.N != 2 {
		t.Fatalf("report %+v", rep)
	}
}

func TestScoreAcceptedAllRejected(t *testing.T) {
	rep, rej, err := ScoreAccepted([]int{1}, []int{0}, []bool{false})
	if err != nil {
		t.Fatal(err)
	}
	if rej != 1 || rep.N != 0 {
		t.Fatalf("rej=%v rep=%+v", rej, rep)
	}
}

func TestScoreAcceptedErrors(t *testing.T) {
	if _, _, err := ScoreAccepted(nil, nil, nil); err == nil {
		t.Fatal("expected empty error")
	}
	if _, _, err := ScoreAccepted([]int{1}, []int{1}, []bool{true, false}); err == nil {
		t.Fatal("expected length error")
	}
}

// Property: rejecting only wrong predictions can never lower accuracy or F1
// computed on the kept set, relative to keeping everything.
func TestRejectionImprovesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		yTrue := make([]int, n)
		yPred := make([]int, n)
		accepted := make([]bool, n)
		anyCorrect := false
		for i := range yTrue {
			yTrue[i] = rng.Intn(2)
			yPred[i] = rng.Intn(2)
			accepted[i] = yTrue[i] == yPred[i] // oracle rejector
			anyCorrect = anyCorrect || accepted[i]
		}
		if !anyCorrect {
			return true
		}
		full, err := Score(yTrue, yPred)
		if err != nil {
			return false
		}
		kept, _, err := ScoreAccepted(yTrue, yPred, accepted)
		if err != nil {
			return false
		}
		return kept.Accuracy >= full.Accuracy-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: F1 is always within [0,1] and 0 <= accuracy <= 1.
func TestScoreRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		yTrue := make([]int, n)
		yPred := make([]int, n)
		for i := range yTrue {
			yTrue[i] = rng.Intn(2)
			yPred[i] = rng.Intn(2)
		}
		rep, err := Score(yTrue, yPred)
		if err != nil {
			return false
		}
		ok := func(v float64) bool { return v >= 0 && v <= 1 }
		return ok(rep.Accuracy) && ok(rep.Precision) && ok(rep.Recall) && ok(rep.F1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
