// Package detector is the public, serving-oriented front door to the
// trusted hardware-based malware detector (HMD) of the source paper. It
// wraps the implementation core in internal/hmd behind one coherent API:
//
//   - New builds a Detector from a training split with functional options
//     (WithModel, WithPCA, WithThreshold, WithWorkers, ...).
//   - Assess produces a Result — prediction, vote-entropy uncertainty, vote
//     distribution, Benign/Malware/Reject decision and (optionally) the
//     aleatoric/epistemic decomposition.
//   - AssessBatch / AssessDataset do the same for many rows at once;
//     AssessInto / AssessBatchInto do it in a caller-owned BatchScratch
//     with zero steady-state allocations.
//   - Register plugs new base-classifier families into the open model
//     registry without touching internal/hmd.
//   - Save / Load serialize trained pipelines so a service can train once
//     and serve many.
//   - Online, Retrainer and DriftMonitor provide the deployment loop of
//     the paper's Fig. 1: streaming decisions, forensic retraining and
//     drift alarms.
//
// # One inference path
//
// All of those entry points — and Online.Push, and the serving layer's
// single and batch requests — are wrappers a few lines long
// over one function, (*Detector).assess in assess.go, the only code that
// turns raw rows into Results:
//
//	wrapper → assess core → hmd.ProjectRowsScratch  scale (+PCA) into the scratch
//	                      → Matrix.TInto            iff rows >= 32 and a member kernel reads it
//	                      → hmd.AccumulateVotes     member votes → histogram slab
//	                      → hmd.SummarizeCounts     histogram → prediction, entropy, distribution
//	                      → core.Rejector.Decide    threshold → decision
//	                      → hmd.Decompose           member posteriors → split, WithDecomposition only
//
// A wrapper chooses only where the BatchScratch comes from and who owns
// the returned VoteDist:
//
//	Assess           pooled scratch    VoteDist copied out for the caller
//	AssessInto       caller's scratch  VoteDist lives in the scratch until its next use
//	AssessBatch      pooled scratch    results and VoteDists allocated fresh for the caller
//	AssessBatchInto  caller's scratch  results and VoteDists live in the scratch
//	AssessDataset    = AssessBatch over the dataset's rows
//	Online.Push      = Assess on each completed window's features
//
// The core picks between member walks (lone row; 2-31 rows, the trees'
// 8-lane lockstep kernel; from 32 rows the bitmask kernel over a transpose
// for trees that fit it and the trees' level walk for those that do not)
// from the batch size and member capabilities it observes — never from an
// option. The members vote serially on the caller's goroutine; parallelism
// comes from concurrent calls. Every walk is bit-identical to the reference,
// hmd.Pipeline.Assess, which TestEntryPointsMatchReference holds every
// entry point to.
//
// A trained Detector is immutable and safe for concurrent use.
package detector

import (
	"errors"
	"fmt"

	"trusthmd/internal/core"
	"trusthmd/internal/hmd"
	"trusthmd/internal/ml/linear"
	"trusthmd/pkg/dataset"
)

// Decision is a trusted-HMD verdict: accept the prediction as Benign or
// Malware, or Reject and route the input to an analyst.
type Decision int

// The three trusted decisions. Values mirror internal/core's decision
// encoding (asserted by a package test) so Save/Load and the serving wire
// formats are unaffected by the exported type.
const (
	Benign Decision = iota
	Malware
	Reject
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case Benign:
		return "benign"
	case Malware:
		return "malware"
	case Reject:
		return "reject"
	default:
		return fmt.Sprintf("decision(%d)", int(d))
	}
}

// Decomposition splits a prediction's total uncertainty into aleatoric
// (data noise) and epistemic (model disagreement) components. All values
// are in bits; Total = Aleatoric + Epistemic.
type Decomposition struct {
	Total     float64
	Aleatoric float64
	Epistemic float64
}

// DominantSource names the larger component of the decomposition:
// "epistemic" for out-of-distribution-style uncertainty (actionable by
// collecting data and retraining), "aleatoric" for class overlap
// (actionable only by changing sensors/features), or "none" when the
// prediction is confident (total below the given floor).
func (d Decomposition) DominantSource(confidentBelow float64) string {
	return core.Decomposition(d).DominantSource(confidentBelow)
}

// Result is the detector's per-input output.
type Result struct {
	// Prediction is the ensemble's plurality label (0 benign, 1 malware).
	Prediction int
	// Entropy is the vote-entropy uncertainty in bits.
	Entropy float64
	// VoteDist is the normalised member-vote distribution.
	VoteDist []float64
	// Decision applies the detector's rejection threshold to the
	// prediction: Benign, Malware, or Reject.
	Decision Decision
	// Decomposition is the aleatoric/epistemic split of the uncertainty;
	// nil unless the detector was built WithDecomposition(true).
	Decomposition *Decomposition
}

// Detector is a trained trusted HMD ready to serve traffic.
type Detector struct {
	cfg  config
	pipe *hmd.Pipeline
}

// New trains a detector on the training split. Options default to the
// paper's deployment configuration: a 25-member random forest, no PCA,
// rejection threshold 0.40.
func New(train *dataset.Dataset, opts ...Option) (*Detector, error) {
	cfg, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	builder, err := builderFor(cfg.model)
	if err != nil {
		return nil, err
	}
	pipe, err := hmd.Train(train, hmd.Config{
		NewMember:     builder(cfg.params),
		M:             cfg.m,
		PCAComponents: cfg.pca,
		Seed:          cfg.seed,
		Diversity:     cfg.diversity,
		MaxSamples:    cfg.maxSamples,
		MaxFeatures:   cfg.maxFeatures,
		Workers:       cfg.workers,
	})
	if err != nil {
		return nil, fmt.Errorf("detector: train %s: %w", cfg.model, err)
	}
	return &Detector{cfg: cfg, pipe: pipe}, nil
}

// Model returns the registry name of the detector's base-classifier family.
func (d *Detector) Model() string { return d.cfg.model }

// Threshold returns the entropy rejection threshold in use.
func (d *Detector) Threshold() float64 { return d.cfg.threshold }

// Members returns the number of trained ensemble members.
func (d *Detector) Members() int { return d.pipe.Members() }

// InputDim returns the raw feature dimensionality the pipeline was fitted
// on — the length Assess expects of its input vectors. Serving layers use
// it to reject malformed requests before they reach the pipeline.
func (d *Detector) InputDim() int { return d.pipe.InputDim() }

// Info is an exported snapshot of a detector's configuration: everything a
// serving layer needs to describe a loaded model, and everything Save
// persists about how the pipeline was trained.
type Info struct {
	// Model is the registry name of the base-classifier family.
	Model string `json:"model"`
	// Members is the trained ensemble size.
	Members int `json:"members"`
	// InputDim is the raw feature dimensionality Assess expects.
	InputDim int `json:"input_dim"`
	// PCA is the number of principal components (0 = no PCA stage).
	PCA int `json:"pca,omitempty"`
	// Seed fixed the training-time randomness.
	Seed int64 `json:"seed"`
	// Threshold is the entropy rejection threshold in bits.
	Threshold float64 `json:"threshold"`
	// Workers capped member-training parallelism (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Diversity names the member-diversification scheme.
	Diversity string `json:"diversity"`
	// MaxSamples / MaxFeatures are the bagging subsample fractions
	// (0 = full size / all features).
	MaxSamples  float64 `json:"max_samples,omitempty"`
	MaxFeatures float64 `json:"max_features,omitempty"`
	// Decompose reports whether results carry the aleatoric/epistemic
	// uncertainty split.
	Decompose bool `json:"decompose,omitempty"`
}

// Info returns the detector's configuration snapshot.
func (d *Detector) Info() Info {
	return Info{
		Model:       d.cfg.model,
		Members:     d.pipe.Members(),
		InputDim:    d.pipe.InputDim(),
		PCA:         d.cfg.pca,
		Seed:        d.cfg.seed,
		Threshold:   d.cfg.threshold,
		Workers:     d.cfg.workers,
		Diversity:   d.cfg.diversity.String(),
		MaxSamples:  d.cfg.maxSamples,
		MaxFeatures: d.cfg.maxFeatures,
		Decompose:   d.cfg.decompose,
	}
}

// Options reconstructs the option list that reproduces this
// configuration through New — the bridge from a served model's snapshot
// back to training: a retraining loop reads the live shard's Info and
// trains the replacement with the same family, ensemble shape and
// decision policy (callers append e.g. WithSeed to vary what they must).
func (i Info) Options() []Option {
	opts := []Option{
		WithModel(i.Model),
		WithEnsembleSize(i.Members),
		WithPCA(i.PCA),
		WithSeed(i.Seed),
		WithThreshold(i.Threshold),
		WithDiversity(i.Diversity),
		WithMaxSamples(i.MaxSamples),
		WithMaxFeatures(i.MaxFeatures),
		WithDecomposition(i.Decompose),
	}
	if i.Workers > 0 {
		opts = append(opts, WithWorkers(i.Workers))
	}
	return opts
}

// WithOptions returns a detector sharing this one's trained pipeline but
// with decision-time options (threshold, decomposition) replaced.
// Training-time options are ignored: the pipeline is not refitted and the
// trained configuration (model, ensemble shape, seeds, workers) is kept
// as-is.
func (d *Detector) WithOptions(opts ...Option) (*Detector, error) {
	cfg := d.cfg
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	// Training-time fields cannot change without refitting; restore them so
	// the returned detector never misreports (or mis-saves) its pipeline.
	cfg.model, cfg.m, cfg.pca, cfg.seed, cfg.workers = d.cfg.model, d.cfg.m, d.cfg.pca, d.cfg.seed, d.cfg.workers
	cfg.diversity, cfg.maxSamples, cfg.maxFeatures = d.cfg.diversity, d.cfg.maxSamples, d.cfg.maxFeatures
	cfg.params = d.cfg.params
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg, pipe: d.pipe}, nil
}

// Truncated returns a detector view restricted to the first m ensemble
// members, sharing the trained pipeline stages with the receiver. It powers
// entropy-vs-ensemble-size sweeps (the paper's Fig. 9a) without refitting.
func (d *Detector) Truncated(m int) (*Detector, error) {
	pipe, err := d.pipe.Truncated(m)
	if err != nil {
		return nil, fmt.Errorf("detector: %w", err)
	}
	return &Detector{cfg: d.cfg, pipe: pipe}, nil
}

// Predictions extracts the per-sample predictions from a batch of results.
func Predictions(rs []Result) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.Prediction
	}
	return out
}

// Entropies extracts the per-sample entropies from a batch of results.
func Entropies(rs []Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Entropy
	}
	return out
}

// IsNoConvergence reports whether err stems from an ensemble member that
// failed to converge during training (the paper's SVM-on-HPC observation).
// Experiment harnesses use it to exclude a family rather than abort.
func IsNoConvergence(err error) bool {
	var nc *linear.ErrNoConvergence
	return errors.As(err, &nc)
}
