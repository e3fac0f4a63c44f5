// Package core implements the paper's primary contribution: online
// predictive-uncertainty estimation for hardware-based malware detectors.
//
// An ensemble of base classifiers (package ensemble) emits M hard votes for
// every input. The Estimator turns those votes into a frequency
// distribution and computes its Shannon entropy (Eq. 4 of the paper) — the
// predictive uncertainty. A Rejector compares the entropy against a
// threshold and converts the raw prediction into a trusted decision:
// Benign, Malware, or Rejected (the input is routed to a security analyst).
// Sweep produces the rejection-rate and F1 curves of the paper's Figs. 7
// and 9.
//
// Entropy is measured in bits (log base 2), so binary vote entropy lies in
// [0, 1]; the paper's threshold axes (0–0.85) use the same scale.
package core

import (
	"errors"
	"fmt"
	"math"

	"trusthmd/internal/stats"
)

// Estimator computes predictive uncertainty from ensemble votes.
// The zero value is ready to use and measures entropy in bits.
type Estimator struct {
	// Classes is the number of classes in the vote distribution; 0 means
	// infer from the maximum vote seen (at least 2).
	Classes int
}

// ErrNoVotes reports an empty vote slice.
var ErrNoVotes = errors.New("core: no votes")

func (e Estimator) voteCounts(votes []int) ([]int, error) {
	if len(votes) == 0 {
		return nil, ErrNoVotes
	}
	k := e.Classes
	if k < 2 {
		k = 2
	}
	for _, v := range votes {
		if v < 0 {
			return nil, fmt.Errorf("core: negative vote %d", v)
		}
		if v+1 > k {
			k = v + 1
		}
	}
	counts := make([]int, k)
	for _, v := range votes {
		counts[v]++
	}
	return counts, nil
}

// VoteSummary is everything the trusted HMD derives from one set of member
// votes: the plurality prediction, the vote-entropy uncertainty (Eq. 4) and
// the normalised vote distribution (the hard-vote form of Eq. 3's
// predictive posterior). Estimator.Summarize is the only way to produce
// one.
type VoteSummary struct {
	// Prediction is the plurality class; ties resolve to the lower index.
	Prediction int
	// Entropy is the Shannon entropy of the vote distribution in bits.
	Entropy float64
	// Dist is the normalised vote frequency distribution (sums to 1).
	Dist []float64
}

// Summarize computes prediction, entropy and vote distribution from one
// walk over the member votes.
func (e Estimator) Summarize(votes []int) (VoteSummary, error) {
	counts, err := e.voteCounts(votes)
	if err != nil {
		return VoteSummary{}, err
	}
	h, err := stats.CountEntropy(counts)
	if err != nil {
		return VoteSummary{}, err
	}
	inv := 1 / float64(len(votes))
	dist := make([]float64, len(counts))
	best := 0
	for lab, c := range counts {
		dist[lab] = float64(c) * inv
		if c > counts[best] {
			best = lab
		}
	}
	return VoteSummary{Prediction: best, Entropy: h, Dist: dist}, nil
}

// Decision is the output of a trusted HMD (Fig. 1, bottom path).
type Decision int

const (
	// DecideBenign accepts the prediction as benign.
	DecideBenign Decision = iota
	// DecideMalware accepts the prediction as malware.
	DecideMalware
	// DecideReject refuses to classify: the prediction's uncertainty
	// exceeded the threshold and the input is handed to a specialist.
	DecideReject
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case DecideBenign:
		return "benign"
	case DecideMalware:
		return "malware"
	case DecideReject:
		return "reject"
	default:
		return fmt.Sprintf("decision(%d)", int(d))
	}
}

// Rejector converts (prediction, entropy) pairs into trusted decisions.
type Rejector struct {
	// Threshold is the entropy (bits) above which predictions are rejected.
	Threshold float64
}

// Decide maps a raw binary prediction and its predictive entropy to a
// trusted decision. Predictions with entropy strictly above the threshold
// are rejected.
func (r Rejector) Decide(prediction int, entropy float64) (Decision, error) {
	if math.IsNaN(entropy) || entropy < 0 {
		return DecideReject, fmt.Errorf("core: invalid entropy %v", entropy)
	}
	if entropy > r.Threshold {
		return DecideReject, nil
	}
	switch prediction {
	case 0:
		return DecideBenign, nil
	case 1:
		return DecideMalware, nil
	default:
		return DecideReject, fmt.Errorf("core: prediction %d is not a binary class", prediction)
	}
}

// Accept reports whether an entropy value passes the threshold.
func (r Rejector) Accept(entropy float64) bool { return entropy <= r.Threshold }

// RejectedFraction returns the fraction of entropies rejected at the
// rejector's threshold.
func (r Rejector) RejectedFraction(entropies []float64) (float64, error) {
	if len(entropies) == 0 {
		return 0, errors.New("core: no entropies")
	}
	rejected := 0
	for _, h := range entropies {
		if !r.Accept(h) {
			rejected++
		}
	}
	return float64(rejected) / float64(len(entropies)), nil
}
