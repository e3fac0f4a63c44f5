package exp

import (
	"fmt"

	"trusthmd/internal/ml/linear"
	"trusthmd/internal/ml/platt"
	"trusthmd/pkg/dataset"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/linalg"
)

// PlattResult is ablation A1: Platt-scaled single-model confidence versus
// ensemble vote entropy on out-of-distribution inputs. The paper's §II-E
// argues that a calibrated point estimate (Chawla et al. [5]) stays
// confident on unknown inputs while the vote-entropy estimator flags them.
type PlattResult struct {
	// MeanConfidenceKnown/Unknown: Platt-calibrated confidence max(p,1-p)
	// of one logistic model.
	MeanConfidenceKnown   float64
	MeanConfidenceUnknown float64
	// MeanEntropyKnown/Unknown: vote entropy of the LR bagging ensemble.
	MeanEntropyKnown   float64
	MeanEntropyUnknown float64
}

// AblationPlatt runs A1 on the DVFS dataset.
func AblationPlatt(cfg Config) (*PlattResult, error) {
	cfg = cfg.normalized()
	data, err := cfg.dvfsData()
	if err != nil {
		return nil, fmt.Errorf("exp: ablation platt: %w", err)
	}

	// The single-model baseline stays deliberately outside the detector
	// pipeline: one logistic model plus Platt scaling on held-out scores.
	X := data.Train.X()
	scaler, err := dataset.FitScaler(X)
	if err != nil {
		return nil, err
	}
	Xs, err := scaler.Transform(X)
	if err != nil {
		return nil, err
	}
	lr := linear.NewLogistic(linear.LogisticConfig{Seed: cfg.Seed, Epochs: 60})
	if err := lr.Fit(Xs, data.Train.Y()); err != nil {
		return nil, err
	}
	calScores := make([]float64, data.Test.Len())
	for i := 0; i < data.Test.Len(); i++ {
		z, err := scaler.TransformVec(data.Test.At(i).Features)
		if err != nil {
			return nil, err
		}
		calScores[i] = lr.Score(z)
	}
	cal, err := platt.Fit(calScores, data.Test.Y())
	if err != nil {
		return nil, err
	}

	confidence := func(d *dataset.Dataset) (float64, error) {
		var sum float64
		for i := 0; i < d.Len(); i++ {
			z, err := scaler.TransformVec(d.At(i).Features)
			if err != nil {
				return 0, err
			}
			sum += cal.Confidence(lr.Score(z))
		}
		return sum / float64(d.Len()), nil
	}

	res := &PlattResult{}
	if res.MeanConfidenceKnown, err = confidence(data.Test); err != nil {
		return nil, err
	}
	if res.MeanConfidenceUnknown, err = confidence(data.Unknown); err != nil {
		return nil, err
	}

	// LR ensemble vote entropy for the same inputs.
	d, err := cfg.train(data.Train, "lr")
	if err != nil {
		return nil, err
	}
	rKnown, err := d.AssessDataset(data.Test)
	if err != nil {
		return nil, err
	}
	rUnknown, err := d.AssessDataset(data.Unknown)
	if err != nil {
		return nil, err
	}
	res.MeanEntropyKnown = linalg.Mean(detector.Entropies(rKnown))
	res.MeanEntropyUnknown = linalg.Mean(detector.Entropies(rUnknown))
	return res, nil
}

// Render prints A1's comparison.
func (r *PlattResult) Render() string {
	return "Ablation A1 (DVFS): Platt-scaled confidence vs ensemble vote entropy\n" +
		fmt.Sprintf("  Platt confidence: known %.3f, unknown %.3f (stays high on OOD: gap %.3f)\n",
			r.MeanConfidenceKnown, r.MeanConfidenceUnknown, r.MeanConfidenceKnown-r.MeanConfidenceUnknown) +
		fmt.Sprintf("  Vote entropy:     known %.3f, unknown %.3f (flags OOD: gap %.3f)\n",
			r.MeanEntropyKnown, r.MeanEntropyUnknown, r.MeanEntropyUnknown-r.MeanEntropyKnown)
}

// PosteriorRow is one model's A2 comparison.
type PosteriorRow struct {
	Model                            string
	VoteKnown, VoteUnknown           float64
	PosteriorKnown, PosteriorUnknown float64
}

// PosteriorResult is ablation A2: hard-vote entropy (the paper's estimator)
// versus the entropy of the averaged member posterior (Eq. 3 with soft
// probability outputs) on DVFS. For fully-grown forests the two coincide —
// pure leaves emit one-hot distributions — while logistic ensembles show
// the posterior's extra smoothness.
type PosteriorResult struct {
	Rows []PosteriorRow
}

// AblationPosterior runs A2 for the RF and LR pipelines.
func AblationPosterior(cfg Config) (*PosteriorResult, error) {
	cfg = cfg.normalized()
	data, err := cfg.dvfsData()
	if err != nil {
		return nil, fmt.Errorf("exp: ablation posterior: %w", err)
	}
	res := &PosteriorResult{}
	for _, model := range []string{"rf", "lr"} {
		// The averaged posterior's entropy is the decomposition's Total.
		d, err := cfg.train(data.Train, model, detector.WithDecomposition(true))
		if err != nil {
			return nil, err
		}
		eval := func(ds *dataset.Dataset) (vote, post float64, err error) {
			rs, err := d.AssessDataset(ds)
			if err != nil {
				return 0, 0, err
			}
			for _, r := range rs {
				vote += r.Entropy
				post += r.Decomposition.Total
			}
			n := float64(ds.Len())
			return vote / n, post / n, nil
		}
		row := PosteriorRow{Model: model}
		if row.VoteKnown, row.PosteriorKnown, err = eval(data.Test); err != nil {
			return nil, err
		}
		if row.VoteUnknown, row.PosteriorUnknown, err = eval(data.Unknown); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints A2's comparison.
func (r *PosteriorResult) Render() string {
	out := "Ablation A2 (DVFS): vote entropy vs averaged-posterior entropy\n"
	for _, row := range r.Rows {
		out += fmt.Sprintf("  %s vote entropy:      known %.3f, unknown %.3f (gap %.3f)\n",
			displayModel(row.Model), row.VoteKnown, row.VoteUnknown, row.VoteUnknown-row.VoteKnown)
		out += fmt.Sprintf("  %s posterior entropy: known %.3f, unknown %.3f (gap %.3f)\n",
			displayModel(row.Model), row.PosteriorKnown, row.PosteriorUnknown, row.PosteriorUnknown-row.PosteriorKnown)
	}
	return out
}

// DiversityResult is ablation A3: bagging diversity versus random-restart
// (deep-ensembles-style [8]) diversity for the LR ensemble on DVFS.
type DiversityResult struct {
	BaggingKnown, BaggingUnknown       float64
	RandomInitKnown, RandomInitUnknown float64
}

// AblationDiversity runs A3.
func AblationDiversity(cfg Config) (*DiversityResult, error) {
	cfg = cfg.normalized()
	data, err := cfg.dvfsData()
	if err != nil {
		return nil, fmt.Errorf("exp: ablation diversity: %w", err)
	}
	res := &DiversityResult{}
	for _, mode := range []string{"bootstrap", "random-init"} {
		d, err := cfg.train(data.Train, "lr", detector.WithDiversity(mode))
		if err != nil {
			return nil, err
		}
		rKnown, err := d.AssessDataset(data.Test)
		if err != nil {
			return nil, err
		}
		rUnknown, err := d.AssessDataset(data.Unknown)
		if err != nil {
			return nil, err
		}
		hKnown := linalg.Mean(detector.Entropies(rKnown))
		hUnknown := linalg.Mean(detector.Entropies(rUnknown))
		if mode == "bootstrap" {
			res.BaggingKnown, res.BaggingUnknown = hKnown, hUnknown
		} else {
			res.RandomInitKnown, res.RandomInitUnknown = hKnown, hUnknown
		}
	}
	return res, nil
}

// Render prints A3's comparison.
func (r *DiversityResult) Render() string {
	return "Ablation A3 (DVFS, LR): bagging vs random-restart diversity\n" +
		fmt.Sprintf("  Bagging:        known %.3f, unknown %.3f (gap %.3f)\n",
			r.BaggingKnown, r.BaggingUnknown, r.BaggingUnknown-r.BaggingKnown) +
		fmt.Sprintf("  Random restart: known %.3f, unknown %.3f (gap %.3f)\n",
			r.RandomInitKnown, r.RandomInitUnknown, r.RandomInitUnknown-r.RandomInitKnown)
}
