// Package gbm implements gradient-boosted decision stumps as a trusted-HMD
// base-classifier family, and registers it with the pkg/detector model
// registry under the name "gbm".
//
// The package is written as proof that the classifier contract is fully
// exported: it imports only the public packages (pkg/model, pkg/linalg,
// pkg/detector) — never internal/ — so an identical implementation compiles
// unchanged in a separate module. A test walks the imports to keep it that
// way. Out-of-tree families follow the same recipe: implement
// model.Classifier (and optionally model.ProbClassifier), add a gob
// round-trip for the trained state, and self-register in init via
// detector.Register with a prototype.
//
// Binaries enable the family with a blank import:
//
//	import _ "trusthmd/pkg/model/gbm"
//
// The learner is binary Newton-step gradient boosting on the logistic loss
// (Friedman 2001; the stump leaf values use the standard second-order
// gain/weight formulas with L2 regularisation λ=1). Stumps are weak but
// boosting makes the family strong, and its soft sigmoid posterior gives
// the ensemble's uncertainty decomposition non-trivial aleatoric mass.
package gbm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"trusthmd/pkg/detector"
	"trusthmd/pkg/linalg"
	"trusthmd/pkg/model"
)

func init() {
	detector.Register("gbm", func(p detector.Params) model.Factory {
		return func(seed int64) model.Classifier {
			return New(Config{Seed: seed})
		}
	}, &GBM{})
}

// Config parameterises a GBM member.
type Config struct {
	// Rounds is the number of boosting rounds / stumps (default 50).
	Rounds int
	// LearningRate is the shrinkage applied to every stump (default 0.3).
	LearningRate float64
	// FeatureFrac is the fraction of features each round may split on,
	// drawn per round from the member's seed (default 0.8). Values below 1
	// diversify ensemble members beyond what bootstrap resampling gives.
	FeatureFrac float64
	// Seed drives the per-round feature subsampling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Rounds <= 0 {
		c.Rounds = 50
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.3
	}
	if c.FeatureFrac <= 0 || c.FeatureFrac > 1 {
		c.FeatureFrac = 0.8
	}
	return c
}

// stump is one boosted decision stump: inputs with x[Feature] <= Threshold
// contribute Left to the logit, the rest contribute Right.
type stump struct {
	Feature     int
	Threshold   float64
	Left, Right float64
}

// GBM is a gradient-boosted-stumps binary classifier. The zero value is
// unfitted; construct with New. A fitted GBM is immutable and safe for
// concurrent Predict use.
type GBM struct {
	cfg       Config
	bias      float64
	stumps    []stump
	nFeatures int
}

// ErrNotFitted reports use before Fit.
var ErrNotFitted = errors.New("gbm: not fitted")

// New returns an untrained GBM.
func New(cfg Config) *GBM {
	return &GBM{cfg: cfg.withDefaults()}
}

// NumFeatures returns the input width the model was trained on.
func (g *GBM) NumFeatures() int { return g.nFeatures }

// Rounds returns the number of fitted stumps (0 before Fit). Early rounds
// may stop when the training set is perfectly separated.
func (g *GBM) Rounds() int { return len(g.stumps) }

// Fit trains the boosted stumps on X and binary labels y.
func (g *GBM) Fit(X *linalg.Matrix, y []int) error {
	n, d := X.Rows(), X.Cols()
	if n == 0 || d == 0 {
		return errors.New("gbm: empty training set")
	}
	if n != len(y) {
		return fmt.Errorf("gbm: %d rows but %d labels", n, len(y))
	}
	for i, lab := range y {
		if lab != 0 && lab != 1 {
			return fmt.Errorf("gbm: label %d at sample %d; gbm is a binary family", lab, i)
		}
	}
	cfg := g.cfg.withDefaults()

	// Presort each feature once; every round's split scan walks these.
	order := make([][]int, d)
	for f := 0; f < d; f++ {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		col := f
		sort.Slice(idx, func(a, b int) bool { return X.At(idx[a], col) < X.At(idx[b], col) })
		order[f] = idx
	}

	// Prior logit: F starts at log(p/(1-p)) of the base rate.
	pos := 0
	for _, lab := range y {
		pos += lab
	}
	prior := clamp(float64(pos)/float64(n), 1e-6, 1-1e-6)
	bias := math.Log(prior / (1 - prior))

	F := make([]float64, n)
	for i := range F {
		F[i] = bias
	}
	grad := make([]float64, n)
	hess := make([]float64, n)
	rng := rand.New(rand.NewSource(cfg.Seed))
	nSub := int(cfg.FeatureFrac * float64(d))
	if nSub < 1 {
		nSub = 1
	}

	stumps := make([]stump, 0, cfg.Rounds)
	for t := 0; t < cfg.Rounds; t++ {
		for i := range F {
			p := sigmoid(F[i])
			grad[i] = float64(y[i]) - p
			hess[i] = p * (1 - p)
		}
		feats := rng.Perm(d)[:nSub]
		best, ok := bestStump(X, order, grad, hess, feats)
		if !ok {
			break // no split improves: training set separated or constant
		}
		best.Left *= cfg.LearningRate
		best.Right *= cfg.LearningRate
		stumps = append(stumps, best)
		for i := 0; i < n; i++ {
			if X.At(i, best.Feature) <= best.Threshold {
				F[i] += best.Left
			} else {
				F[i] += best.Right
			}
		}
	}

	g.cfg = cfg
	g.bias = bias
	g.stumps = stumps
	g.nFeatures = d
	return nil
}

// lambda is the L2 leaf regulariser of the Newton gain/weight formulas.
const lambda = 1.0

// bestStump scans the candidate features for the split with the largest
// second-order gain. ok is false when no split beats the unsplit node.
func bestStump(X *linalg.Matrix, order [][]int, grad, hess []float64, feats []int) (stump, bool) {
	var totG, totH float64
	for i := range grad {
		totG += grad[i]
		totH += hess[i]
	}
	rootGain := totG * totG / (totH + lambda)

	var best stump
	bestGain := rootGain + 1e-12
	found := false
	for _, f := range feats {
		idx := order[f]
		var gl, hl float64
		for k := 0; k < len(idx)-1; k++ {
			i := idx[k]
			gl += grad[i]
			hl += hess[i]
			xv, xn := X.At(i, f), X.At(idx[k+1], f)
			if xv == xn {
				continue // can't split between equal values
			}
			gr, hr := totG-gl, totH-hl
			gain := gl*gl/(hl+lambda) + gr*gr/(hr+lambda)
			if gain > bestGain {
				bestGain = gain
				best = stump{
					Feature:   f,
					Threshold: xv + (xn-xv)/2,
					Left:      gl / (hl + lambda),
					Right:     gr / (hr + lambda),
				}
				found = true
			}
		}
	}
	return best, found
}

// score returns the raw logit for x.
func (g *GBM) score(x []float64) float64 {
	s := g.bias
	for _, st := range g.stumps {
		if x[st.Feature] <= st.Threshold {
			s += st.Left
		} else {
			s += st.Right
		}
	}
	return s
}

// Predict returns the hard class label for one input.
func (g *GBM) Predict(x []float64) int {
	if g.nFeatures == 0 {
		panic(ErrNotFitted)
	}
	if g.score(x) > 0 {
		return 1
	}
	return 0
}

// PredictBatch writes the hard label of every row of X into out,
// satisfying model.BatchClassifier. The stump array is already one
// contiguous slab (the boosted analogue of a flattened tree), so scoring
// rows back-to-back keeps it L1-resident for the whole batch; labels are
// identical to per-row Predict calls and no memory is allocated.
func (g *GBM) PredictBatch(X *linalg.Matrix, out []int) {
	if g.nFeatures == 0 {
		panic(ErrNotFitted)
	}
	if len(out) != X.Rows() {
		panic(fmt.Sprintf("gbm: predict batch out len %d for %d rows", len(out), X.Rows()))
	}
	for i := range out {
		if g.score(X.Row(i)) > 0 {
			out[i] = 1
		} else {
			out[i] = 0
		}
	}
}

// PredictProba returns the calibrated-by-construction sigmoid posterior
// [P(benign), P(malware)], satisfying model.ProbClassifier.
func (g *GBM) PredictProba(x []float64) []float64 {
	if g.nFeatures == 0 {
		panic(ErrNotFitted)
	}
	p := sigmoid(g.score(x))
	return []float64{1 - p, p}
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// The family must satisfy the exported contract it advertises.
var (
	_ model.Classifier      = (*GBM)(nil)
	_ model.ProbClassifier  = (*GBM)(nil)
	_ model.BatchClassifier = (*GBM)(nil)
)
