package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ROCPoint is one operating point of a receiver operating characteristic.
type ROCPoint struct {
	Threshold float64
	TPR       float64 // true positive rate (recall)
	FPR       float64 // false positive rate
}

// ROC computes the ROC curve of a score-based detector: scores are
// "malware-ness" values (higher = more likely malware, label 1). Points
// are ordered from the strictest threshold (FPR 0) to the loosest (FPR 1),
// with one point per distinct score.
func ROC(yTrue []int, scores []float64) ([]ROCPoint, error) {
	if len(yTrue) == 0 {
		return nil, ErrNoSamples
	}
	if len(yTrue) != len(scores) {
		return nil, fmt.Errorf("metrics: %d labels vs %d scores", len(yTrue), len(scores))
	}
	var pos, neg int
	for i, lab := range yTrue {
		switch lab {
		case 1:
			pos++
		case 0:
			neg++
		default:
			return nil, fmt.Errorf("metrics: label %d at sample %d is not binary", lab, i)
		}
		if math.IsNaN(scores[i]) {
			return nil, fmt.Errorf("metrics: NaN score at sample %d", i)
		}
	}
	if pos == 0 || neg == 0 {
		return nil, errors.New("metrics: ROC needs both classes")
	}

	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })

	out := []ROCPoint{{Threshold: math.Inf(1), TPR: 0, FPR: 0}}
	tp, fp := 0, 0
	for k := 0; k < len(idx); {
		thr := scores[idx[k]]
		// Consume all samples tied at this score before emitting a point.
		for k < len(idx) && scores[idx[k]] == thr {
			if yTrue[idx[k]] == 1 {
				tp++
			} else {
				fp++
			}
			k++
		}
		out = append(out, ROCPoint{
			Threshold: thr,
			TPR:       float64(tp) / float64(pos),
			FPR:       float64(fp) / float64(neg),
		})
	}
	return out, nil
}

// AUC returns the area under the ROC curve by trapezoidal integration.
func AUC(yTrue []int, scores []float64) (float64, error) {
	roc, err := ROC(yTrue, scores)
	if err != nil {
		return 0, err
	}
	var area float64
	for i := 1; i < len(roc); i++ {
		dx := roc[i].FPR - roc[i-1].FPR
		area += dx * (roc[i].TPR + roc[i-1].TPR) / 2
	}
	return area, nil
}

// ECE returns the expected calibration error with equal-width confidence
// bins: the weighted mean |accuracy(bin) - confidence(bin)| over predicted
// P(y=1) values. bins must be >= 1.
func ECE(yTrue []int, probs []float64, bins int) (float64, error) {
	if bins < 1 {
		return 0, fmt.Errorf("metrics: ECE needs >=1 bin, got %d", bins)
	}
	if len(yTrue) == 0 {
		return 0, ErrNoSamples
	}
	if len(yTrue) != len(probs) {
		return 0, fmt.Errorf("metrics: %d labels vs %d probabilities", len(yTrue), len(probs))
	}
	type bucket struct {
		n       int
		correct int
		confSum float64
	}
	bs := make([]bucket, bins)
	for i, lab := range yTrue {
		if lab != 0 && lab != 1 {
			return 0, fmt.Errorf("metrics: label %d at sample %d is not binary", lab, i)
		}
		p := probs[i]
		if p < 0 || p > 1 || math.IsNaN(p) {
			return 0, fmt.Errorf("metrics: probability %v at sample %d outside [0,1]", p, i)
		}
		pred := 0
		conf := 1 - p
		if p >= 0.5 {
			pred = 1
			conf = p
		}
		b := int(conf * float64(bins))
		if b == bins { // conf == 1.0
			b = bins - 1
		}
		bs[b].n++
		bs[b].confSum += conf
		if pred == lab {
			bs[b].correct++
		}
	}
	var ece float64
	for _, b := range bs {
		if b.n == 0 {
			continue
		}
		acc := float64(b.correct) / float64(b.n)
		conf := b.confSum / float64(b.n)
		ece += float64(b.n) / float64(len(yTrue)) * math.Abs(acc-conf)
	}
	return ece, nil
}
