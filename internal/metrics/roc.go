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
