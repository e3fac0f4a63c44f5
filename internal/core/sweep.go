package core

import (
	"errors"
	"fmt"

	"trusthmd/internal/metrics"
)

// SweepPoint is one threshold sample of a rejection curve (Figs. 7a, 9b):
// the percentage of inputs whose predictive entropy exceeds the threshold.
type SweepPoint struct {
	Threshold   float64
	RejectedPct float64
}

// F1Point is one threshold sample of an F1 curve (Fig. 7b): the F1 score
// over accepted predictions plus the fraction rejected at that threshold.
type F1Point struct {
	Threshold   float64
	F1          float64
	Precision   float64
	Recall      float64
	RejectedPct float64
}

// Thresholds returns an inclusive [lo, hi] grid with the given step, as
// used on the paper's x-axes (e.g. 0.00–0.75 step 0.05).
func Thresholds(lo, hi, step float64) ([]float64, error) {
	if step <= 0 {
		return nil, fmt.Errorf("core: non-positive step %v", step)
	}
	if hi < lo {
		return nil, fmt.Errorf("core: empty range [%v,%v]", lo, hi)
	}
	var out []float64
	for i := 0; ; i++ {
		t := lo + float64(i)*step
		if t > hi+step/1e6 {
			break
		}
		out = append(out, t)
	}
	return out, nil
}

// RejectionCurve evaluates the rejected percentage at every threshold.
func RejectionCurve(entropies []float64, thresholds []float64) ([]SweepPoint, error) {
	if len(entropies) == 0 {
		return nil, errors.New("core: no entropies")
	}
	out := make([]SweepPoint, len(thresholds))
	for i, thr := range thresholds {
		frac, err := Rejector{Threshold: thr}.RejectedFraction(entropies)
		if err != nil {
			return nil, err
		}
		out[i] = SweepPoint{Threshold: thr, RejectedPct: 100 * frac}
	}
	return out, nil
}

// F1Curve evaluates rejection-aware F1 at every threshold: predictions with
// entropy above the threshold are rejected and the report is computed on
// the rest (Fig. 7b). Thresholds where everything is rejected yield F1 = 0.
func F1Curve(yTrue, yPred []int, entropies []float64, thresholds []float64) ([]F1Point, error) {
	if len(yTrue) == 0 {
		return nil, errors.New("core: no samples")
	}
	if len(yTrue) != len(yPred) || len(yTrue) != len(entropies) {
		return nil, fmt.Errorf("core: mismatched lengths %d/%d/%d", len(yTrue), len(yPred), len(entropies))
	}
	out := make([]F1Point, len(thresholds))
	accepted := make([]bool, len(yTrue))
	for i, thr := range thresholds {
		r := Rejector{Threshold: thr}
		for j, h := range entropies {
			accepted[j] = r.Accept(h)
		}
		rep, rejFrac, err := metrics.ScoreAccepted(yTrue, yPred, accepted)
		if err != nil {
			return nil, err
		}
		out[i] = F1Point{
			Threshold:   thr,
			F1:          rep.F1,
			Precision:   rep.Precision,
			Recall:      rep.Recall,
			RejectedPct: 100 * rejFrac,
		}
	}
	return out, nil
}

// OperatingPoint summarises a single threshold choice on known and unknown
// populations — the paper's headline statement is the DVFS RF operating
// point at threshold 0.40: ~95 % of unknown workloads rejected, < 5 % of
// known ones.
type OperatingPoint struct {
	Threshold          float64
	KnownRejectedPct   float64
	UnknownRejectedPct float64
}

// At evaluates the operating point of a threshold against known-data and
// unknown-data entropy populations.
func At(threshold float64, knownEntropies, unknownEntropies []float64) (OperatingPoint, error) {
	r := Rejector{Threshold: threshold}
	kf, err := r.RejectedFraction(knownEntropies)
	if err != nil {
		return OperatingPoint{}, fmt.Errorf("core: known: %w", err)
	}
	uf, err := r.RejectedFraction(unknownEntropies)
	if err != nil {
		return OperatingPoint{}, fmt.Errorf("core: unknown: %w", err)
	}
	return OperatingPoint{
		Threshold:          threshold,
		KnownRejectedPct:   100 * kf,
		UnknownRejectedPct: 100 * uf,
	}, nil
}
