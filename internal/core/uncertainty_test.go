package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVoteEntropyUnanimous(t *testing.T) {
	var e Estimator
	h, err := e.VoteEntropy([]int{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if h != 0 {
		t.Fatalf("unanimous entropy %v, want 0", h)
	}
}

func TestVoteEntropySplit(t *testing.T) {
	var e Estimator
	h, err := e.VoteEntropy([]int{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-1) > 1e-12 {
		t.Fatalf("50/50 entropy %v, want 1 bit", h)
	}
}

func TestVoteEntropyErrors(t *testing.T) {
	var e Estimator
	if _, err := e.VoteEntropy(nil); err == nil {
		t.Fatal("expected no-votes error")
	}
	if _, err := e.VoteEntropy([]int{-1}); err == nil {
		t.Fatal("expected negative vote error")
	}
}

func TestVoteDistribution(t *testing.T) {
	var e Estimator
	p, err := e.VoteDistribution([]int{0, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p[0]-0.25) > 1e-12 || math.Abs(p[1]-0.75) > 1e-12 {
		t.Fatalf("distribution %v", p)
	}
	// Classes floor: a single class of votes still yields a length-2 dist.
	p, err = e.VoteDistribution([]int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 {
		t.Fatalf("len %d, want 2", len(p))
	}
	// Explicit class count extends the support.
	e3 := Estimator{Classes: 3}
	p, err = e3.VoteDistribution([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 {
		t.Fatalf("len %d, want 3", len(p))
	}
}

func TestAgreement(t *testing.T) {
	var e Estimator
	a, err := e.Agreement([]int{1, 1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-0.75) > 1e-12 {
		t.Fatalf("agreement %v", a)
	}
	if _, err := e.Agreement(nil); err == nil {
		t.Fatal("expected error")
	}
}

// Property: entropy is maximal iff votes are evenly split, and agreement
// and entropy are inversely ordered.
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
		hA, err1 := e.VoteEntropy(votesA)
		hB, err2 := e.VoteEntropy(votesB)
		aA, err3 := e.Agreement(votesA)
		aB, err4 := e.Agreement(votesB)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		if hA < 0 || hA > 1+1e-12 {
			return false
		}
		// Higher agreement implies lower-or-equal entropy for binary votes.
		if aA > aB && hA > hB+1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPosterior(t *testing.T) {
	p := Posterior{0.25, 0.75}
	h, err := p.Entropy()
	if err != nil {
		t.Fatal(err)
	}
	want := -(0.25*math.Log2(0.25) + 0.75*math.Log2(0.75))
	if math.Abs(h-want) > 1e-12 {
		t.Fatalf("entropy %v, want %v", h, want)
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
