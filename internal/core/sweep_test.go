package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestThresholds(t *testing.T) {
	ts, err := Thresholds(0, 0.75, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 16 {
		t.Fatalf("len %d, want 16", len(ts))
	}
	if ts[0] != 0 || math.Abs(ts[15]-0.75) > 1e-9 {
		t.Fatalf("endpoints %v %v", ts[0], ts[15])
	}
	if _, err := Thresholds(0, 1, 0); err == nil {
		t.Fatal("expected step error")
	}
	if _, err := Thresholds(1, 0, 0.1); err == nil {
		t.Fatal("expected range error")
	}
}

func TestRejectionCurveMonotone(t *testing.T) {
	entropies := []float64{0.1, 0.2, 0.3, 0.5, 0.8, 0.9}
	ts, _ := Thresholds(0, 1, 0.1)
	curve, err := RejectionCurve(entropies, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].RejectedPct > curve[i-1].RejectedPct+1e-9 {
			t.Fatalf("rejection curve must be non-increasing in threshold: %v", curve)
		}
	}
	if curve[0].RejectedPct != 100 {
		t.Fatalf("at threshold 0, %v%% rejected", curve[0].RejectedPct)
	}
	if curve[len(curve)-1].RejectedPct != 0 {
		t.Fatalf("at threshold 1, %v%% rejected", curve[len(curve)-1].RejectedPct)
	}
	if _, err := RejectionCurve(nil, ts); err == nil {
		t.Fatal("expected empty error")
	}
}

func TestF1Curve(t *testing.T) {
	// Wrong predictions carry high entropy: rejection should raise F1.
	yTrue := []int{1, 1, 1, 0, 0, 0}
	yPred := []int{1, 1, 0, 0, 0, 1}
	entropies := []float64{0.1, 0.1, 0.9, 0.1, 0.1, 0.9}
	ts := []float64{0.05, 0.5, 1.0}
	curve, err := F1Curve(yTrue, yPred, entropies, ts)
	if err != nil {
		t.Fatal(err)
	}
	// At threshold 0.5, errors rejected: perfect F1.
	if curve[1].F1 != 1 {
		t.Fatalf("F1 at 0.5 = %v, want 1", curve[1].F1)
	}
	if math.Abs(curve[1].RejectedPct-100.0/3) > 1e-9 {
		t.Fatalf("rejected %v", curve[1].RejectedPct)
	}
	// At threshold 1.0, nothing rejected: F1 = 2/3 (2 errors among 6).
	if curve[2].RejectedPct != 0 {
		t.Fatalf("rejected at 1.0 = %v", curve[2].RejectedPct)
	}
	if curve[2].F1 >= curve[1].F1 {
		t.Fatalf("rejection should raise F1: %v vs %v", curve[2].F1, curve[1].F1)
	}
}

func TestF1CurveErrors(t *testing.T) {
	if _, err := F1Curve(nil, nil, nil, nil); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := F1Curve([]int{1}, []int{1}, []float64{0.1, 0.2}, nil); err == nil {
		t.Fatal("expected length error")
	}
}

func TestAtOperatingPoint(t *testing.T) {
	known := []float64{0.1, 0.2, 0.3}
	unknown := []float64{0.8, 0.9, 0.2}
	op, err := At(0.4, known, unknown)
	if err != nil {
		t.Fatal(err)
	}
	if op.KnownRejectedPct != 0 {
		t.Fatalf("known %v", op.KnownRejectedPct)
	}
	if math.Abs(op.UnknownRejectedPct-200.0/3) > 1e-9 {
		t.Fatalf("unknown %v", op.UnknownRejectedPct)
	}
	if _, err := At(0.4, nil, unknown); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := At(0.4, known, nil); err == nil {
		t.Fatal("expected empty error")
	}
}

// Property: rejection curves are monotonically non-increasing and bounded
// in [0,100] for any entropy population.
func TestRejectionCurveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		entropies := make([]float64, n)
		for i := range entropies {
			entropies[i] = rng.Float64()
		}
		ts, err := Thresholds(0, 1, 0.05)
		if err != nil {
			return false
		}
		curve, err := RejectionCurve(entropies, ts)
		if err != nil {
			return false
		}
		for i, p := range curve {
			if p.RejectedPct < 0 || p.RejectedPct > 100 {
				return false
			}
			if i > 0 && p.RejectedPct > curve[i-1].RejectedPct+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
