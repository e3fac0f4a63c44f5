package detector

import (
	"errors"
	"fmt"

	"trusthmd/pkg/dataset"
)

// Retrainer implements the feedback loop sketched in the paper's
// introduction: rejected inputs are collected as forensic data, an analyst
// assigns them ground-truth labels, and once enough labelled forensics
// accumulate the detector is retrained with the new workload class folded
// into its training set. After retraining, the formerly-unknown workload
// is in distribution: its predictive entropy drops and it is classified
// rather than rejected.
//
// Retrainer is not safe for concurrent use.
type Retrainer struct {
	base     *dataset.Dataset
	opts     []Option
	baseSeed int64
	quorum   int
	pending  *dataset.Dataset
	rounds   int
}

// NewRetrainer wraps the original training set and the detector options
// used for (re)training. quorum is the number of labelled forensic samples
// required before ShouldRetrain reports true (minimum 1). The options are
// resolved eagerly so misconfiguration surfaces here, not at the first
// retraining round.
func NewRetrainer(train *dataset.Dataset, quorum int, opts ...Option) (*Retrainer, error) {
	if train == nil || train.Len() == 0 {
		return nil, errors.New("detector: retrainer needs a non-empty training set")
	}
	if quorum < 1 {
		return nil, fmt.Errorf("detector: retrainer quorum %d must be >=1", quorum)
	}
	cfg, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	if _, err := builderFor(cfg.model); err != nil {
		return nil, err
	}
	return &Retrainer{
		base:     train,
		opts:     append([]Option(nil), opts...),
		baseSeed: cfg.seed,
		quorum:   quorum,
		pending:  dataset.New(train.Dim()),
	}, nil
}

// Forensic is one rejected input with its (analyst- or policy-assigned)
// label, as handed to ReportForensics.
type Forensic struct {
	Features []float64
	Label    int
	// App tags the workload in the augmented training set (for stored
	// verdicts, typically derived from the device that produced them).
	App string
}

// ReportForensics records a batch of rejected inputs — however an analyst
// collected them, or as a retraining controller drains them from a verdict
// store's rejected records. The batch is all-or-nothing: on a malformed
// sample nothing is recorded and the pending set is unchanged.
func (r *Retrainer) ReportForensics(fs []Forensic) error {
	batch := dataset.New(r.pending.Dim())
	for i, f := range fs {
		if err := batch.Add(dataset.Sample{
			Features: append([]float64(nil), f.Features...),
			Label:    f.Label,
			App:      f.App,
		}); err != nil {
			return fmt.Errorf("detector: report forensics: sample %d: %w", i, err)
		}
	}
	merged, err := r.pending.Merge(batch)
	if err != nil {
		return fmt.Errorf("detector: report forensics: %w", err)
	}
	r.pending = merged
	return nil
}

// Pending returns the number of labelled forensic samples not yet folded
// into a retraining round.
func (r *Retrainer) Pending() int { return r.pending.Len() }

// Rounds returns the number of completed retraining rounds.
func (r *Retrainer) Rounds() int { return r.rounds }

// ShouldRetrain reports whether the forensic quorum has been reached.
func (r *Retrainer) ShouldRetrain() bool { return r.pending.Len() >= r.quorum }

// Retrain merges the forensic samples into the training set and trains a
// fresh detector. The forensic buffer is drained into the base set, so
// subsequent rounds build on all evidence gathered so far. The training
// seed is advanced every round so retrained ensembles are independent.
func (r *Retrainer) Retrain() (*Detector, error) {
	if r.pending.Len() == 0 {
		return nil, errors.New("detector: no forensic samples to retrain on")
	}
	merged, err := r.base.Merge(r.pending)
	if err != nil {
		return nil, fmt.Errorf("detector: retrain merge: %w", err)
	}
	opts := append(append([]Option(nil), r.opts...), WithSeed(r.baseSeed+int64(r.rounds+1)))
	d, err := New(merged, opts...)
	if err != nil {
		return nil, fmt.Errorf("detector: retrain: %w", err)
	}
	r.base = merged
	r.pending = dataset.New(merged.Dim())
	r.rounds++
	return d, nil
}

// TrainingSize returns the current size of the (augmented) training set.
func (r *Retrainer) TrainingSize() int { return r.base.Len() }
