package linear

import (
	"fmt"
	"math"
	"math/rand"

	"trusthmd/pkg/linalg"
)

// SVMConfig controls linear-SVM training with the Pegasos sub-gradient
// solver (Shalev-Shwartz et al.). Zero values fall back to the documented
// defaults at construction time.
type SVMConfig struct {
	// Lambda is the regularisation strength (default 1e-3). The margin is
	// proportional to 1/sqrt(Lambda).
	Lambda float64
	// Epochs is the number of passes over the data (default 200).
	Epochs int
	// Tol declares convergence when the relative change of the objective
	// between epochs drops below it (default 1e-4).
	Tol float64
	// MaxObjective marks training as non-converged when the final
	// regularised hinge objective stays above it. The paper reports that
	// SVM "failed to converge" on the bootstrapped HPC dataset — heavily
	// overlapping classes keep the hinge loss high — and this knob lets
	// callers detect that condition. 0 disables the check.
	MaxObjective float64
	// Seed drives example sampling.
	Seed int64
}

// SVM is a binary linear support vector machine with labels {0, 1}
// externally and {-1, +1} internally.
type SVM struct {
	cfg       SVMConfig
	w         []float64
	bias      float64
	converged bool
	objective float64
	epochs    int
}

// ErrNoConvergence reports that Pegasos did not reach the configured
// objective; mirrors sklearn's ConvergenceWarning turned into a hard error,
// which the paper hit on the HPC dataset.
type ErrNoConvergence struct {
	Objective float64
	Epochs    int
}

func (e *ErrNoConvergence) Error() string {
	return fmt.Sprintf("svm: failed to converge after %d epochs (objective %.4f)", e.Epochs, e.Objective)
}

// NewSVM returns an untrained SVM.
func NewSVM(cfg SVMConfig) *SVM {
	if cfg.Lambda <= 0 {
		cfg.Lambda = 1e-3
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 200
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-4
	}
	return &SVM{cfg: cfg}
}

// Fit trains on X with binary labels y in {0, 1}. It returns
// *ErrNoConvergence when MaxObjective is set and not reached; the model is
// still usable for prediction in that case, and Converged() reports false.
func (s *SVM) Fit(X *linalg.Matrix, y []int) error {
	if err := checkBinary(X, y); err != nil {
		return fmt.Errorf("svm: %w", err)
	}
	n, d := X.Rows(), X.Cols()
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	s.w = make([]float64, d)
	s.bias = 0
	s.converged = false

	signed := make([]float64, n)
	for i, lab := range y {
		signed[i] = 2*float64(lab) - 1
	}

	// Augment the input with a constant-1 feature so the bias rides inside
	// the weight vector (lightly regularised — standard for Pegasos).
	waug := make([]float64, d+1)
	wavg := make([]float64, d+1)
	row := make([]float64, d+1)
	row[d] = 1
	maxNorm := 1 / math.Sqrt(s.cfg.Lambda)

	setModel := func(src []float64) {
		copy(s.w, src[:d])
		s.bias = src[d]
	}

	t := 1
	prevObj := math.Inf(1)
	for epoch := 1; epoch <= s.cfg.Epochs; epoch++ {
		for k := 0; k < n; k++ {
			i := rng.Intn(n)
			copy(row[:d], X.Row(i))
			eta := 1 / (s.cfg.Lambda * float64(t))
			margin := signed[i] * linalg.Dot(waug, row)

			linalg.ScaleVec(waug, 1-eta*s.cfg.Lambda)
			if margin < 1 {
				linalg.AddScaled(waug, eta*signed[i], row)
			}
			// Project onto the ball of radius 1/sqrt(lambda) — the Pegasos
			// projection step, which bounds the iterates.
			if nrm := linalg.Norm(waug); nrm > maxNorm {
				linalg.ScaleVec(waug, maxNorm/nrm)
			}
			// Averaged Pegasos: running mean of the iterates.
			for j := range wavg {
				wavg[j] += (waug[j] - wavg[j]) / float64(t)
			}
			t++
		}
		setModel(wavg)
		obj := s.objectiveOn(X, signed)
		if epoch > 1 && math.Abs(prevObj-obj) <= s.cfg.Tol*math.Max(prevObj, 1) {
			s.objective = obj
			s.epochs = epoch
			if s.cfg.MaxObjective > 0 && obj > s.cfg.MaxObjective {
				return &ErrNoConvergence{Objective: obj, Epochs: epoch}
			}
			s.converged = true
			return nil
		}
		prevObj = obj
	}
	s.objective = prevObj
	s.epochs = s.cfg.Epochs
	if s.cfg.MaxObjective > 0 && prevObj > s.cfg.MaxObjective {
		return &ErrNoConvergence{Objective: prevObj, Epochs: s.cfg.Epochs}
	}
	// Objective plateaued within Epochs without meeting Tol: accept the
	// model but report non-convergence via Converged().
	return nil
}

// objectiveOn evaluates the regularised hinge objective
// lambda/2 ||w||^2 + mean(hinge).
func (s *SVM) objectiveOn(X *linalg.Matrix, signed []float64) float64 {
	var hinge float64
	for i := 0; i < X.Rows(); i++ {
		m := signed[i] * (linalg.Dot(s.w, X.Row(i)) + s.bias)
		if m < 1 {
			hinge += 1 - m
		}
	}
	return 0.5*s.cfg.Lambda*linalg.Dot(s.w, s.w) + hinge/float64(X.Rows())
}

// Score returns the signed distance proxy w·x + b.
func (s *SVM) Score(x []float64) float64 {
	if s.w == nil {
		panic(ErrNotFitted)
	}
	if len(x) != len(s.w) {
		panic(fmt.Sprintf("svm: input has %d features, trained on %d", len(x), len(s.w)))
	}
	return linalg.Dot(s.w, x) + s.bias
}

// NumFeatures returns the input width the model was trained on.
func (s *SVM) NumFeatures() int { return len(s.w) }

// Predict returns 1 when the score is non-negative, else 0.
func (s *SVM) Predict(x []float64) int {
	if s.Score(x) >= 0 {
		return 1
	}
	return 0
}

// Converged reports whether the last Fit met its tolerance and objective
// requirements.
func (s *SVM) Converged() bool { return s.converged }

// Objective returns the final training objective of the last Fit.
func (s *SVM) Objective() float64 { return s.objective }

// EpochsRun returns the number of epochs the last Fit executed.
func (s *SVM) EpochsRun() int { return s.epochs }

// Weights returns a copy of the trained weight vector and the bias.
func (s *SVM) Weights() ([]float64, float64) {
	if s.w == nil {
		return nil, 0
	}
	return linalg.CloneVec(s.w), s.bias
}
