// Package bayes implements Gaussian Naive Bayes — one of the classifier
// families evaluated on the HPC dataset by Zhou et al. [21], included here
// as an additional base model for the uncertainty study (experiment A4).
package bayes

import (
	"errors"
	"fmt"
	"math"

	"trusthmd/pkg/linalg"
)

// Config controls Gaussian NB training.
type Config struct {
	// VarSmoothing is added to every per-feature variance to keep the
	// likelihood finite for near-constant features (default 1e-9 times the
	// largest feature variance, as in scikit-learn).
	VarSmoothing float64
}

// Gaussian is a trained Gaussian Naive Bayes classifier.
type Gaussian struct {
	cfg     Config
	classes int
	prior   []float64   // log priors per class
	mean    [][]float64 // [class][feature]
	vari    [][]float64 // [class][feature]
}

// ErrNotFitted reports prediction before training.
var ErrNotFitted = errors.New("bayes: not fitted")

// New returns an untrained Gaussian NB.
func New(cfg Config) *Gaussian { return &Gaussian{cfg: cfg} }

// Fit estimates per-class feature means, variances and priors.
func (g *Gaussian) Fit(X *linalg.Matrix, y []int) error {
	if X.Rows() == 0 {
		return errors.New("bayes: empty training set")
	}
	if X.Rows() != len(y) {
		return fmt.Errorf("bayes: %d rows but %d labels", X.Rows(), len(y))
	}
	maxLabel := 0
	for i, lab := range y {
		if lab < 0 {
			return fmt.Errorf("bayes: negative label %d at sample %d", lab, i)
		}
		if lab > maxLabel {
			maxLabel = lab
		}
	}
	g.classes = maxLabel + 1
	if g.classes < 2 {
		g.classes = 2
	}
	d := X.Cols()

	counts := make([]int, g.classes)
	g.mean = make([][]float64, g.classes)
	g.vari = make([][]float64, g.classes)
	for c := range g.mean {
		g.mean[c] = make([]float64, d)
		g.vari[c] = make([]float64, d)
	}
	for i := 0; i < X.Rows(); i++ {
		c := y[i]
		counts[c]++
		row := X.Row(i)
		for j, v := range row {
			g.mean[c][j] += v
		}
	}
	for c := range g.mean {
		if counts[c] == 0 {
			continue
		}
		inv := 1 / float64(counts[c])
		for j := range g.mean[c] {
			g.mean[c][j] *= inv
		}
	}
	var maxVar float64
	for i := 0; i < X.Rows(); i++ {
		c := y[i]
		row := X.Row(i)
		for j, v := range row {
			dlt := v - g.mean[c][j]
			g.vari[c][j] += dlt * dlt
		}
	}
	for c := range g.vari {
		if counts[c] == 0 {
			continue
		}
		inv := 1 / float64(counts[c])
		for j := range g.vari[c] {
			g.vari[c][j] *= inv
			if g.vari[c][j] > maxVar {
				maxVar = g.vari[c][j]
			}
		}
	}
	smooth := g.cfg.VarSmoothing
	if smooth <= 0 {
		smooth = 1e-9 * math.Max(maxVar, 1)
	}
	for c := range g.vari {
		for j := range g.vari[c] {
			g.vari[c][j] += smooth
		}
	}

	g.prior = make([]float64, g.classes)
	for c, n := range counts {
		if n == 0 {
			g.prior[c] = math.Inf(-1) // class absent: impossible
			continue
		}
		g.prior[c] = math.Log(float64(n) / float64(X.Rows()))
	}
	return nil
}

// logJoint returns the per-class log joint likelihood log P(c) + log P(x|c).
func (g *Gaussian) logJoint(x []float64) []float64 {
	if g.mean == nil {
		panic(ErrNotFitted)
	}
	if len(x) != len(g.mean[0]) {
		panic(fmt.Sprintf("bayes: input has %d features, trained on %d", len(x), len(g.mean[0])))
	}
	out := make([]float64, g.classes)
	for c := 0; c < g.classes; c++ {
		lj := g.prior[c]
		if math.IsInf(lj, -1) {
			out[c] = lj
			continue
		}
		for j, v := range x {
			d := v - g.mean[c][j]
			lj += -0.5*math.Log(2*math.Pi*g.vari[c][j]) - d*d/(2*g.vari[c][j])
		}
		out[c] = lj
	}
	return out
}

// Predict returns the maximum a-posteriori class.
func (g *Gaussian) Predict(x []float64) int {
	return linalg.ArgMax(g.logJoint(x))
}

// PredictProba returns the normalised posterior over classes.
func (g *Gaussian) PredictProba(x []float64) []float64 {
	lj := g.logJoint(x)
	maxLJ := lj[linalg.ArgMax(lj)]
	out := make([]float64, len(lj))
	var sum float64
	for c, v := range lj {
		out[c] = math.Exp(v - maxLJ)
		sum += out[c]
	}
	for c := range out {
		out[c] /= sum
	}
	return out
}

// NumClasses returns the number of classes inferred at fit time.
func (g *Gaussian) NumClasses() int { return g.classes }

// NumFeatures returns the input width the model was trained on (0 when
// unfitted, as a decoded member may be).
func (g *Gaussian) NumFeatures() int {
	if len(g.mean) == 0 {
		return 0
	}
	return len(g.mean[0])
}
