// Package knn implements a k-nearest-neighbours classifier — another
// family from the Zhou et al. [21] HPC study, included as a base model in
// the uncertainty ablation A4. The implementation is a brute-force
// Euclidean search, adequate for the ensemble sizes and training-set
// scales used in the experiments.
package knn

import (
	"errors"
	"fmt"
	"sort"

	"trusthmd/pkg/linalg"
)

// Config controls kNN classification.
type Config struct {
	// K is the neighbourhood size (default 5). Even values break ties
	// toward the lower class index.
	K int
}

// KNN is a fitted k-nearest-neighbours classifier (it memorises the
// training set).
type KNN struct {
	cfg     Config
	X       *linalg.Matrix
	y       []int
	classes int
}

// ErrNotFitted reports prediction before training.
var ErrNotFitted = errors.New("knn: not fitted")

// New returns an untrained kNN.
func New(cfg Config) *KNN {
	if cfg.K <= 0 {
		cfg.K = 5
	}
	return &KNN{cfg: cfg}
}

// Fit memorises the training set.
func (k *KNN) Fit(X *linalg.Matrix, y []int) error {
	if X.Rows() == 0 {
		return errors.New("knn: empty training set")
	}
	if X.Rows() != len(y) {
		return fmt.Errorf("knn: %d rows but %d labels", X.Rows(), len(y))
	}
	maxLabel := 0
	for i, lab := range y {
		if lab < 0 {
			return fmt.Errorf("knn: negative label %d at sample %d", lab, i)
		}
		if lab > maxLabel {
			maxLabel = lab
		}
	}
	k.classes = maxLabel + 1
	if k.classes < 2 {
		k.classes = 2
	}
	k.X = X.Clone()
	k.y = append([]int(nil), y...)
	return nil
}

// neighbours returns the class histogram of the K nearest training points.
func (k *KNN) neighbours(x []float64) []int {
	if k.X == nil {
		panic(ErrNotFitted)
	}
	if len(x) != k.X.Cols() {
		panic(fmt.Sprintf("knn: input has %d features, trained on %d", len(x), k.X.Cols()))
	}
	n := k.X.Rows()
	type cand struct {
		dist  float64
		label int
	}
	cands := make([]cand, n)
	for i := 0; i < n; i++ {
		cands[i] = cand{dist: linalg.SqDist(x, k.X.Row(i)), label: k.y[i]}
	}
	kk := k.cfg.K
	if kk > n {
		kk = n
	}
	// Partial selection: sort is fine at these scales and keeps the code
	// simple and allocation-light.
	sort.Slice(cands, func(a, b int) bool { return cands[a].dist < cands[b].dist })
	counts := make([]int, k.classes)
	for i := 0; i < kk; i++ {
		counts[cands[i].label]++
	}
	return counts
}

// Predict returns the plurality class of the K nearest neighbours.
func (k *KNN) Predict(x []float64) int {
	counts := k.neighbours(x)
	best := 0
	for c, v := range counts {
		if v > counts[best] {
			best = c
		}
	}
	return best
}

// PredictProba returns neighbour class frequencies.
func (k *KNN) PredictProba(x []float64) []float64 {
	counts := k.neighbours(x)
	total := 0
	for _, v := range counts {
		total += v
	}
	out := make([]float64, len(counts))
	for c, v := range counts {
		out[c] = float64(v) / float64(total)
	}
	return out
}

// NumClasses returns the number of classes inferred at fit time.
func (k *KNN) NumClasses() int { return k.classes }

// NumFeatures returns the input width the model was trained on (0 when
// unfitted, as a decoded member may be).
func (k *KNN) NumFeatures() int {
	if k.X == nil {
		return 0
	}
	return k.X.Cols()
}
