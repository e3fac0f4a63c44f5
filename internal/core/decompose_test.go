package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDecomposeConfidentAgreement(t *testing.T) {
	// All members certain and agreeing: no uncertainty of either kind.
	probs := [][]float64{{1, 0}, {1, 0}, {1, 0}}
	d, err := Decompose(probs)
	if err != nil {
		t.Fatal(err)
	}
	if d.Total != 0 || d.Aleatoric != 0 || d.Epistemic != 0 {
		t.Fatalf("decomposition %+v, want zeros", d)
	}
	if d.DominantSource(0.1) != "none" {
		t.Fatal("confident prediction should have no dominant source")
	}
}

func TestDecomposePureEpistemic(t *testing.T) {
	// Members certain but split 50/50: pure disagreement.
	probs := [][]float64{{1, 0}, {0, 1}, {1, 0}, {0, 1}}
	d, err := Decompose(probs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Total-1) > 1e-12 {
		t.Fatalf("total %v, want 1", d.Total)
	}
	if d.Aleatoric != 0 {
		t.Fatalf("aleatoric %v, want 0", d.Aleatoric)
	}
	if math.Abs(d.Epistemic-1) > 1e-12 {
		t.Fatalf("epistemic %v, want 1", d.Epistemic)
	}
	if d.DominantSource(0.1) != "epistemic" {
		t.Fatal("dominant source should be epistemic")
	}
}

func TestDecomposePureAleatoric(t *testing.T) {
	// Members agree that the input is ambiguous: pure data uncertainty.
	probs := [][]float64{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}}
	d, err := Decompose(probs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Total-1) > 1e-12 || math.Abs(d.Aleatoric-1) > 1e-12 {
		t.Fatalf("decomposition %+v", d)
	}
	if d.Epistemic > 1e-12 {
		t.Fatalf("epistemic %v, want 0", d.Epistemic)
	}
	if d.DominantSource(0.1) != "aleatoric" {
		t.Fatal("dominant source should be aleatoric")
	}
}

func TestDecomposeHardVotesMatchVoteEntropy(t *testing.T) {
	// One-hot members: epistemic component equals the vote entropy.
	votes := []int{0, 1, 1, 1, 0}
	probs := make([][]float64, len(votes))
	for i, v := range votes {
		p := make([]float64, 2)
		p[v] = 1
		probs[i] = p
	}
	d, err := Decompose(probs)
	if err != nil {
		t.Fatal(err)
	}
	var e Estimator
	s, err := e.Summarize(votes)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Epistemic-s.Entropy) > 1e-12 {
		t.Fatalf("epistemic %v vs vote entropy %v", d.Epistemic, s.Entropy)
	}
}

// TestPosterior: Total is the entropy of the averaged member posterior
// (Eq. 3 then Eq. 4) — here members {0.5, 0.5} and {0, 1} average to
// {0.25, 0.75}.
func TestPosterior(t *testing.T) {
	d, err := Decompose([][]float64{{0.5, 0.5}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	want := -(0.25*math.Log2(0.25) + 0.75*math.Log2(0.75))
	if math.Abs(d.Total-want) > 1e-12 {
		t.Fatalf("total %v, want %v", d.Total, want)
	}
}

func TestDecomposeErrors(t *testing.T) {
	if _, err := Decompose(nil); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := Decompose([][]float64{{1}}); err == nil {
		t.Fatal("expected class-count error")
	}
	if _, err := Decompose([][]float64{{0.5, 0.5}, {0.5}}); err == nil {
		t.Fatal("expected ragged error")
	}
	if _, err := Decompose([][]float64{{-1, 2}}); err == nil {
		t.Fatal("expected invalid probability error")
	}
}

// Properties: Total = Aleatoric + Epistemic, all components in [0, log2 k],
// Epistemic >= 0 (Jensen).
func TestDecomposeIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(20)
		k := 2 + rng.Intn(3)
		probs := make([][]float64, m)
		for i := range probs {
			p := make([]float64, k)
			var sum float64
			for j := range p {
				p[j] = rng.Float64() + 1e-9
				sum += p[j]
			}
			for j := range p {
				p[j] /= sum
			}
			probs[i] = p
		}
		d, err := Decompose(probs)
		if err != nil {
			return false
		}
		maxH := math.Log2(float64(k))
		if d.Total < 0 || d.Total > maxH+1e-9 {
			return false
		}
		if d.Aleatoric < 0 || d.Aleatoric > maxH+1e-9 {
			return false
		}
		if d.Epistemic < 0 {
			return false
		}
		return math.Abs(d.Total-(d.Aleatoric+d.Epistemic)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
