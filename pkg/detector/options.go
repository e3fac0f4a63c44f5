package detector

import (
	"fmt"

	"trusthmd/internal/ensemble"
)

// DefaultThreshold is the paper's DVFS operating point: predictions whose
// vote entropy exceeds 0.40 bits are rejected.
const DefaultThreshold = 0.40

// config is the resolved option set of a Detector.
type config struct {
	model       string
	m           int
	pca         int
	seed        int64
	threshold   float64
	workers     int
	diversity   ensemble.Diversity
	maxSamples  float64
	maxFeatures float64
	decompose   bool
	params      Params
	err         error // first option error, surfaced by resolve
}

// Option configures a Detector at construction time.
type Option func(*config)

func defaults() config {
	return config{model: "rf", m: 25, threshold: DefaultThreshold}
}

func resolve(opts []Option) (config, error) {
	cfg := defaults()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.err != nil {
		return config{}, cfg.err
	}
	if err := cfg.validate(); err != nil {
		return config{}, err
	}
	return cfg, nil
}

func (c *config) validate() error {
	switch {
	case c.m < 1:
		return fmt.Errorf("detector: ensemble size %d must be >=1", c.m)
	case c.pca < 0:
		return fmt.Errorf("detector: pca components %d must be >=0", c.pca)
	case c.threshold < 0:
		return fmt.Errorf("detector: negative threshold %v", c.threshold)
	case c.maxSamples < 0 || c.maxSamples > 1:
		return fmt.Errorf("detector: max samples %v outside [0,1]", c.maxSamples)
	case c.maxFeatures < 0 || c.maxFeatures > 1:
		return fmt.Errorf("detector: max features %v outside [0,1]", c.maxFeatures)
	}
	return nil
}

// WithModel selects the base-classifier family by registry name (built-ins:
// "rf", "lr", "svm", "nb", "knn"; default "rf").
func WithModel(name string) Option {
	return func(c *config) { c.model = name }
}

// WithEnsembleSize sets the number of bagged members (default 25, the
// paper's operating point).
func WithEnsembleSize(m int) Option {
	return func(c *config) { c.m = m }
}

// WithPCA reduces inputs to k principal components before the ensemble;
// k = 0 (the default) skips PCA.
func WithPCA(k int) Option {
	return func(c *config) { c.pca = k }
}

// WithThreshold sets the entropy rejection threshold in bits (default
// DefaultThreshold).
func WithThreshold(t float64) Option {
	return func(c *config) { c.threshold = t }
}

// WithSeed fixes all randomness in training for reproducibility.
func WithSeed(seed int64) Option {
	return func(c *config) { c.seed = seed }
}

// WithWorkers caps member-training parallelism; 0 (the default) means
// GOMAXPROCS. Training runs on a pool of that many goroutines: they
// presort the training set, then take members one at a time. The trained
// model does not depend on it. It is a training-time option: assessment
// always votes serially on the caller's goroutine.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithDiversity selects how ensemble members are diversified: "bootstrap"
// (bagging, the paper's method and the default) or "random-init"
// (deep-ensembles style: full data, different seeds).
func WithDiversity(mode string) Option {
	return func(c *config) {
		switch mode {
		case "", "bootstrap":
			c.diversity = ensemble.Bootstrap
		case "random-init":
			c.diversity = ensemble.RandomInit
		default:
			c.err = fmt.Errorf("detector: unknown diversity %q (want bootstrap or random-init)", mode)
		}
	}
}

// WithMaxSamples sets the bootstrap replicate size as a fraction of the
// training set (0 = full size).
func WithMaxSamples(f float64) Option {
	return func(c *config) { c.maxSamples = f }
}

// WithMaxFeatures sets the per-member random feature-subspace fraction
// (0 = all features). The linear and instance-based families need this to
// diversify members that would otherwise be nearly identical.
func WithMaxFeatures(f float64) Option {
	return func(c *config) { c.maxFeatures = f }
}

// WithDecomposition enables the aleatoric/epistemic uncertainty split on
// every Result, computed from the member posteriors of each row after the
// batched vote. As on every detector, a member vote outside {0, 1} is an
// error.
func WithDecomposition(on bool) Option {
	return func(c *config) { c.decompose = on }
}

// WithSVMMaxObjective sets the convergence ceiling for the "svm" family:
// training fails with a non-convergence error when the final hinge
// objective stays above it (0 disables the check).
func WithSVMMaxObjective(obj float64) Option {
	return func(c *config) { c.params.SVMMaxObjective = obj }
}

// WithTreeLimits bounds the "rf" family's trees: maxDepth 0 means
// unlimited, minLeaf < 1 means 1. Leaf-limited trees emit soft posteriors,
// which the uncertainty decomposition needs to observe aleatoric mass.
func WithTreeLimits(maxDepth, minLeaf int) Option {
	return func(c *config) {
		c.params.TreeMaxDepth = maxDepth
		c.params.TreeMinLeaf = minLeaf
	}
}
