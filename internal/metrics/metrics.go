// Package metrics implements the binary-classification scores the paper
// reports (accuracy, precision, recall, F1) together with confusion
// matrices and rejection-aware evaluation: scoring only the predictions a
// trusted HMD accepts, which is how Fig. 7b's F1-vs-threshold curves are
// produced.
package metrics

import (
	"errors"
	"fmt"
)

// ErrNoSamples reports evaluation over an empty prediction set.
var ErrNoSamples = errors.New("metrics: no samples")

// Confusion is a binary confusion matrix with malware (label 1) as the
// positive class, following the paper's convention.
type Confusion struct {
	TP, FP, TN, FN int
}

// NewConfusion tallies predictions against ground truth. Labels must be
// 0 (benign) or 1 (malware).
func NewConfusion(yTrue, yPred []int) (Confusion, error) {
	var c Confusion
	if len(yTrue) != len(yPred) {
		return c, fmt.Errorf("metrics: %d truths vs %d predictions", len(yTrue), len(yPred))
	}
	for i := range yTrue {
		if err := c.Observe(yTrue[i], yPred[i]); err != nil {
			return Confusion{}, fmt.Errorf("metrics: sample %d: %w", i, err)
		}
	}
	return c, nil
}

// Observe folds a single (truth, prediction) pair into the matrix.
func (c *Confusion) Observe(yTrue, yPred int) error {
	switch {
	case yTrue == 1 && yPred == 1:
		c.TP++
	case yTrue == 0 && yPred == 1:
		c.FP++
	case yTrue == 0 && yPred == 0:
		c.TN++
	case yTrue == 1 && yPred == 0:
		c.FN++
	default:
		return fmt.Errorf("labels must be 0 or 1, got truth=%d pred=%d", yTrue, yPred)
	}
	return nil
}

// Total returns the number of observations tallied.
func (c Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Accuracy returns (TP+TN)/total, or 0 for an empty matrix.
func (c Confusion) Accuracy() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(c.Total())
}

// Precision returns TP/(TP+FP), or 0 when nothing was predicted positive.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 0 when no positives exist.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall, or 0 when both are 0.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the matrix and derived scores for logs and reports.
func (c Confusion) String() string {
	return fmt.Sprintf("tp=%d fp=%d tn=%d fn=%d acc=%.3f prec=%.3f rec=%.3f f1=%.3f",
		c.TP, c.FP, c.TN, c.FN, c.Accuracy(), c.Precision(), c.Recall(), c.F1())
}

// Report bundles the headline scores of a confusion matrix.
type Report struct {
	Accuracy, Precision, Recall, F1 float64
	N                               int
}

// Score evaluates predictions against ground truth and returns a Report.
func Score(yTrue, yPred []int) (Report, error) {
	if len(yTrue) == 0 {
		return Report{}, ErrNoSamples
	}
	c, err := NewConfusion(yTrue, yPred)
	if err != nil {
		return Report{}, err
	}
	return Report{
		Accuracy:  c.Accuracy(),
		Precision: c.Precision(),
		Recall:    c.Recall(),
		F1:        c.F1(),
		N:         c.Total(),
	}, nil
}

// ScoreAccepted evaluates only the samples for which accepted[i] is true —
// the rejection-aware scoring used for Fig. 7b. It returns the report over
// accepted samples and the fraction rejected. If every sample is rejected
// the report is zero-valued and rejectedFrac is 1.
func ScoreAccepted(yTrue, yPred []int, accepted []bool) (rep Report, rejectedFrac float64, err error) {
	if len(yTrue) == 0 {
		return Report{}, 0, ErrNoSamples
	}
	if len(yTrue) != len(yPred) || len(yTrue) != len(accepted) {
		return Report{}, 0, fmt.Errorf("metrics: mismatched lengths %d/%d/%d", len(yTrue), len(yPred), len(accepted))
	}
	var keptTrue, keptPred []int
	for i, ok := range accepted {
		if ok {
			keptTrue = append(keptTrue, yTrue[i])
			keptPred = append(keptPred, yPred[i])
		}
	}
	rejectedFrac = 1 - float64(len(keptTrue))/float64(len(yTrue))
	if len(keptTrue) == 0 {
		return Report{}, rejectedFrac, nil
	}
	rep, err = Score(keptTrue, keptPred)
	return rep, rejectedFrac, err
}
