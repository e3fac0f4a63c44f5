// Package model exports the base-classifier contract of the trusted HMD
// ensemble: the interfaces a classifier family must satisfy, the Factory
// hook the ensemble trains through, and the tuning Params the model
// registry hands to family builders.
//
// This is the plug-in boundary of the system. The bagging framework
// (internal/ensemble), the training pipeline (internal/hmd) and the public
// pkg/detector registry all speak these types, so a family implemented in a
// separate module — importing only pkg/model, pkg/linalg and pkg/detector —
// participates on equal footing with the built-ins:
//
//	detector.Register("stump", func(p model.Params) model.Factory {
//	    return func(seed int64) model.Classifier { return NewStump(seed) }
//	}, &Stump{})
//
// # Serialization contract
//
// Trained ensembles are persisted with encoding/gob (detector.Save /
// detector.Load), and members are encoded behind the Classifier interface.
// A family that should survive a save/load round trip must therefore:
//
//   - encode and decode every field needed for Predict — either via
//     exported fields or, for unexported state, by implementing
//     gob.GobEncoder and gob.GobDecoder on the concrete type;
//   - register its concrete type with the gob stream, most conveniently by
//     passing prototype values to detector.Register (shown above), which
//     gob-registers them;
//   - keep the registered concrete type's package path and name stable
//     across versions: gob identifies interface implementations by that
//     name, so moving or renaming the type orphans previously saved blobs.
//
// A decoded member must be ready to Predict; it is never re-Fit (retraining
// goes back through the registry with a fresh Factory).
package model

import "trusthmd/pkg/linalg"

// Classifier is the minimal contract a base model must satisfy to join the
// ensemble.
type Classifier interface {
	// Fit trains on X (one sample per row) and integer class labels y.
	// Implementations must treat X as read-only: the ensemble shares row
	// storage between members and batches.
	Fit(X *linalg.Matrix, y []int) error
	// Predict returns the hard class label for one input.
	Predict(x []float64) int
}

// ProbClassifier is optionally implemented by base models that can emit a
// class-probability distribution. The ensemble then supports averaged
// posteriors (the paper's Eq. 3) and a non-trivial aleatoric/epistemic
// uncertainty split; hard-vote-only members degrade gracefully to one-hot
// distributions.
type ProbClassifier interface {
	Classifier
	// PredictProba returns P(class | x); entries are non-negative and sum
	// to 1 over the classes seen at fit time.
	PredictProba(x []float64) []float64
}

// BatchClassifier is optionally implemented by base models that can
// predict a whole batch in one call. The ensemble's batched assessment
// path uses it to keep one member's model state (a flattened tree slab,
// a stump array) cache-hot across every row of the batch instead of
// re-touching all members per sample. PredictBatch must produce exactly
// the labels that per-row Predict calls would.
type BatchClassifier interface {
	Classifier
	// PredictBatch writes the hard class label of every row of X into out,
	// which has length X.Rows(). Implementations must treat X as read-only
	// and must not retain out.
	PredictBatch(X *linalg.Matrix, out []int)
}

// ColsBatchClassifier is optionally implemented by batch classifiers that
// can additionally exploit a feature-major (transposed) copy of the batch.
// The vectorized tree kernel loads one feature across 32 samples at a
// time, which is contiguous only in column-major storage; the caller
// computes the transpose once per batch and shares it across every member
// that wants it.
type ColsBatchClassifier interface {
	BatchClassifier
	// WantsCols reports whether PredictBatchCols would actually use XT on
	// this host (vector kernel dispatched, model shape eligible). Callers
	// may skip computing the transpose when no member wants it.
	WantsCols() bool
	// PredictBatchCols is PredictBatch with XT = transpose of X alongside.
	// Implementations must produce exactly PredictBatch's labels and fall
	// back to it when XT is nil or mis-shaped.
	PredictBatchCols(X, XT *linalg.Matrix, out []int)
}

// Presorter is optionally implemented by base models that train from one
// presort of the training set shared by every member of an ensemble,
// rather than from a copy of each member's replicate. A tree family sorts
// each feature of X once here instead of once per member, and each member
// then trains on row counts: its replicate is row i of X taken counts[i]
// times, over the columns cols of X in that order (nil: all of them).
type Presorter interface {
	Classifier
	// Presort prepares (X, y) for members of the receiver's family and
	// returns newFitter; the receiver itself is neither read nor changed.
	// It may hand independent tasks to parallel, which runs task(i) for
	// every i in [0, n) on the ensemble's workers and returns when all of
	// them have. Each call of newFitter returns a fit function with scratch
	// of its own, for one goroutine at a time: fit(member, counts, cols)
	// trains member, a classifier of the receiver's family, to the model
	// member.Fit would train on that replicate (len(counts) == X.Rows()).
	// Neither fit nor newFitter retains counts or cols; X and y are read
	// until the last fit returns.
	Presort(X *linalg.Matrix, y []int, parallel func(n int, task func(i int))) (newFitter func() func(member Classifier, counts []int32, cols []int) error, err error)
}

// Factory constructs one untrained ensemble member from a seed. The
// ensemble calls it once per member with that member's own seed;
// deterministic families may ignore the seed (bootstrap resampling still
// diversifies them).
type Factory = func(seed int64) Classifier

// Params carries the model-specific tuning knobs a registry builder may
// consult. Families ignore knobs that do not apply to them, so one Params
// value configures a heterogeneous set of family builders.
type Params struct {
	// SVMMaxObjective is the non-convergence ceiling for hinge-loss
	// training (0 disables the check).
	SVMMaxObjective float64
	// TreeMaxDepth / TreeMinLeaf bound decision-tree members (0 keeps the
	// defaults: unlimited depth, leaf size 1).
	TreeMaxDepth int
	TreeMinLeaf  int
}
