package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVoteEntropyUnanimous(t *testing.T) {
	var e Estimator
	s, err := e.Summarize([]int{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Entropy != 0 || s.Prediction != 1 {
		t.Fatalf("unanimous summary %+v, want entropy 0 for class 1", s)
	}
}

func TestVoteEntropySplit(t *testing.T) {
	var e Estimator
	s, err := e.Summarize([]int{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Entropy-1) > 1e-12 {
		t.Fatalf("50/50 entropy %v, want 1 bit", s.Entropy)
	}
	if s.Prediction != 0 {
		t.Fatalf("tie predicts %d, want the lower class 0", s.Prediction)
	}
}

func TestVoteEntropyErrors(t *testing.T) {
	var e Estimator
	if _, err := e.Summarize(nil); err == nil {
		t.Fatal("expected no-votes error")
	}
	if _, err := e.Summarize([]int{-1}); err == nil {
		t.Fatal("expected negative vote error")
	}
}

func TestVoteDistribution(t *testing.T) {
	var e Estimator
	s, err := e.Summarize([]int{0, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p := s.Dist; math.Abs(p[0]-0.25) > 1e-12 || math.Abs(p[1]-0.75) > 1e-12 {
		t.Fatalf("distribution %v", p)
	}
	// Classes floor: a single class of votes still yields a length-2 dist.
	s, err = e.Summarize([]int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Dist) != 2 {
		t.Fatalf("len %d, want 2", len(s.Dist))
	}
	// Explicit class count extends the support.
	e3 := Estimator{Classes: 3}
	s, err = e3.Summarize([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Dist) != 3 {
		t.Fatalf("len %d, want 3", len(s.Dist))
	}
}

// pluralityShare is the fraction of votes cast for the most-voted class.
func pluralityShare(votes []int) float64 {
	counts := map[int]int{}
	best := 0
	for _, v := range votes {
		counts[v]++
		best = max(best, counts[v])
	}
	return float64(best) / float64(len(votes))
}

// Property: binary vote entropy lies in [0, 1] bits, and a larger plurality
// share never comes with a larger entropy.
func TestEntropyAgreementOrderingProperty(t *testing.T) {
	var e Estimator
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(30)
		votesA := make([]int, m)
		votesB := make([]int, m)
		for i := range votesA {
			votesA[i] = rng.Intn(2)
			votesB[i] = rng.Intn(2)
		}
		sA, err1 := e.Summarize(votesA)
		sB, err2 := e.Summarize(votesB)
		if err1 != nil || err2 != nil {
			return false
		}
		if sA.Entropy < 0 || sA.Entropy > 1+1e-12 {
			return false
		}
		// A larger plurality share implies lower-or-equal binary entropy.
		if pluralityShare(votesA) > pluralityShare(votesB) && sA.Entropy > sB.Entropy+1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecisionString(t *testing.T) {
	if DecideBenign.String() != "benign" || DecideMalware.String() != "malware" ||
		DecideReject.String() != "reject" || Decision(9).String() == "" {
		t.Fatal("decision strings")
	}
}

func TestRejectorDecide(t *testing.T) {
	r := Rejector{Threshold: 0.4}
	cases := []struct {
		pred    int
		entropy float64
		want    Decision
	}{
		{0, 0.1, DecideBenign},
		{1, 0.1, DecideMalware},
		{0, 0.4, DecideBenign}, // boundary inclusive
		{1, 0.41, DecideReject},
		{0, 1.0, DecideReject},
	}
	for _, c := range cases {
		got, err := r.Decide(c.pred, c.entropy)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Fatalf("Decide(%d,%v)=%v, want %v", c.pred, c.entropy, got, c.want)
		}
	}
}

func TestRejectorDecideErrors(t *testing.T) {
	r := Rejector{Threshold: 0.4}
	if _, err := r.Decide(0, math.NaN()); err == nil {
		t.Fatal("expected NaN error")
	}
	if _, err := r.Decide(0, -0.1); err == nil {
		t.Fatal("expected negative entropy error")
	}
	if d, err := r.Decide(7, 0.1); err == nil || d != DecideReject {
		t.Fatal("expected bad-class error with reject fallback")
	}
}

func TestRejectedFraction(t *testing.T) {
	r := Rejector{Threshold: 0.5}
	frac, err := r.RejectedFraction([]float64{0.1, 0.6, 0.9, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if frac != 0.5 {
		t.Fatalf("frac %v", frac)
	}
	if _, err := r.RejectedFraction(nil); err == nil {
		t.Fatal("expected error")
	}
}
