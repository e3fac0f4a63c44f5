// Package linear implements the linear base classifiers used by the paper's
// bagging ensembles: logistic regression trained by mini-batch SGD with L2
// regularisation, and a linear SVM trained with the Pegasos sub-gradient
// solver. Both expose raw decision scores in addition to hard labels so
// they can feed Platt scaling and the uncertainty estimator.
package linear

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"trusthmd/pkg/linalg"
)

// ErrNotFitted reports prediction before training.
var ErrNotFitted = errors.New("linear: not fitted")

// LogisticConfig controls logistic-regression training. Zero values fall
// back to the documented defaults at Fit time.
type LogisticConfig struct {
	// LearningRate is the SGD step size (default 0.1).
	LearningRate float64
	// Epochs is the number of passes over the data (default 100).
	Epochs int
	// Batch is the mini-batch size (default 32).
	Batch int
	// L2 is the ridge penalty coefficient (default 1e-4).
	L2 float64
	// Tol stops training early when the epoch's mean absolute weight update
	// falls below it (default 1e-6).
	Tol float64
	// Seed drives shuffling (and any weight initialisation noise when
	// RandomInit is set).
	Seed int64
	// RandomInit initialises weights from N(0, 0.1) instead of zeros. Used
	// by the deep-ensembles-style diversity ablation (A3).
	RandomInit bool
}

// Logistic is a binary logistic-regression classifier.
type Logistic struct {
	cfg  LogisticConfig
	w    []float64
	bias float64
}

// NewLogistic returns an untrained logistic regression.
func NewLogistic(cfg LogisticConfig) *Logistic {
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.1
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 100
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 32
	}
	if cfg.L2 < 0 {
		cfg.L2 = 0
	} else if cfg.L2 == 0 {
		cfg.L2 = 1e-4
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-6
	}
	return &Logistic{cfg: cfg}
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Fit trains on X (one sample per row) with binary labels y in {0, 1}.
func (l *Logistic) Fit(X *linalg.Matrix, y []int) error {
	if err := checkBinary(X, y); err != nil {
		return fmt.Errorf("logistic: %w", err)
	}
	n, d := X.Rows(), X.Cols()
	rng := rand.New(rand.NewSource(l.cfg.Seed))
	l.w = make([]float64, d)
	l.bias = 0
	if l.cfg.RandomInit {
		for j := range l.w {
			l.w[j] = rng.NormFloat64() * 0.1
		}
		l.bias = rng.NormFloat64() * 0.1
	}

	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	grad := make([]float64, d)

	for epoch := 0; epoch < l.cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var updateMag float64
		for start := 0; start < n; start += l.cfg.Batch {
			end := start + l.cfg.Batch
			if end > n {
				end = n
			}
			for j := range grad {
				grad[j] = 0
			}
			var gradB float64
			for _, i := range idx[start:end] {
				row := X.Row(i)
				p := sigmoid(linalg.Dot(l.w, row) + l.bias)
				err := p - float64(y[i])
				linalg.AddScaled(grad, err, row)
				gradB += err
			}
			scale := l.cfg.LearningRate / float64(end-start)
			for j := range l.w {
				step := scale*grad[j] + l.cfg.LearningRate*l.cfg.L2*l.w[j]
				l.w[j] -= step
				updateMag += math.Abs(step)
			}
			l.bias -= scale * gradB
			updateMag += math.Abs(scale * gradB)
		}
		if updateMag/float64(d+1) < l.cfg.Tol {
			break
		}
	}
	return nil
}

// Score returns the pre-sigmoid decision value w·x + b.
func (l *Logistic) Score(x []float64) float64 {
	if l.w == nil {
		panic(ErrNotFitted)
	}
	if len(x) != len(l.w) {
		panic(fmt.Sprintf("logistic: input has %d features, trained on %d", len(x), len(l.w)))
	}
	return linalg.Dot(l.w, x) + l.bias
}

// NumFeatures returns the input width the model was trained on.
func (l *Logistic) NumFeatures() int { return len(l.w) }

// Proba returns P(y=1|x) through the logistic link.
func (l *Logistic) Proba(x []float64) float64 { return sigmoid(l.Score(x)) }

// PredictProba returns the class distribution [P(y=0), P(y=1)], satisfying
// the model.ProbClassifier contract so logistic ensembles can average
// soft posteriors (Eq. 3).
func (l *Logistic) PredictProba(x []float64) []float64 {
	p := l.Proba(x)
	return []float64{1 - p, p}
}

// Predict returns the hard label (threshold 0.5).
func (l *Logistic) Predict(x []float64) int {
	if l.Proba(x) >= 0.5 {
		return 1
	}
	return 0
}

// Weights returns a copy of the trained weight vector and the bias.
func (l *Logistic) Weights() ([]float64, float64) {
	if l.w == nil {
		return nil, 0
	}
	return linalg.CloneVec(l.w), l.bias
}

func checkBinary(X *linalg.Matrix, y []int) error {
	if X.Rows() == 0 {
		return errors.New("empty training set")
	}
	if X.Rows() != len(y) {
		return fmt.Errorf("%d rows but %d labels", X.Rows(), len(y))
	}
	seen := [2]bool{}
	for i, lab := range y {
		if lab != 0 && lab != 1 {
			return fmt.Errorf("label %d at sample %d is not binary", lab, i)
		}
		seen[lab] = true
	}
	if !seen[0] || !seen[1] {
		return errors.New("training set must contain both classes")
	}
	return nil
}
