// Package hmd is the implementation core of the trusted HMD pipelines of
// the paper's Fig. 1: feature scaling → PCA → bagging ensemble →
// vote-entropy uncertainty. It is deliberately thin and mechanism-only —
// model families plug in through a model.Factory, and policy (rejection
// thresholds, model registry, serving concerns, serialization format) lives
// in the public pkg/detector API that wraps this package.
//
// Inference is exposed twice, and only twice:
//
//   - The stages that pkg/detector's single assess core strings together —
//     ProjectRowsScratch (scale + PCA over a batch), the caller's transpose
//     (WantsCols says whether any member reads it), AccumulateVotes (member
//     votes into a histogram slab), SummarizeCounts (histogram →
//     prediction, entropy, distribution) and, for detectors that ask for
//     it, Decompose (one projected row's aleatoric/epistemic split from the
//     member posteriors, whose Total is the entropy of the averaged
//     posterior, Eq. 3). The vote stages own no buffers: they write into
//     memory the caller passes in. A member vote outside the two classes
//     is an error, never a wider histogram.
//   - One allocating reference — Project, AssessProjected and Assess —
//     built on the ensemble's plain Votes walk and core.Estimator. Tests
//     pin the stages to it bit for bit.
package hmd

import (
	"errors"
	"fmt"
	"sync"

	"trusthmd/internal/core"
	"trusthmd/internal/ensemble"
	"trusthmd/internal/reduce"
	"trusthmd/internal/stats"
	"trusthmd/pkg/dataset"
	"trusthmd/pkg/linalg"
	"trusthmd/pkg/model"
)

// Config controls pipeline training.
type Config struct {
	// NewMember constructs an untrained base classifier from a seed.
	// Required.
	NewMember model.Factory
	// M is the ensemble size (the paper settles on ~20-25; default 25).
	M int
	// PCAComponents is the dimensionality after PCA; 0 skips PCA.
	PCAComponents int
	// Seed drives all randomness in the pipeline.
	Seed int64
	// Diversity selects bagging vs random-restart (default Bootstrap).
	Diversity ensemble.Diversity
	// MaxSamples is the bootstrap replicate fraction (0 = full size).
	MaxSamples float64
	// MaxFeatures is the per-member feature subset fraction (0 = all). The
	// experiments use random feature subspaces for the linear ensembles,
	// whose members are otherwise nearly identical under full bootstraps.
	MaxFeatures float64
	// Workers caps training parallelism; 0 means GOMAXPROCS.
	Workers int
}

// Pipeline is a trained trusted HMD. Its inference methods are safe for
// concurrent use: a fitted pipeline is immutable and holds no buffers.
type Pipeline struct {
	cfg    Config
	scaler *dataset.Scaler
	pca    *reduce.PCA
	ens    *ensemble.Bagging

	// entropy2 memoises the binary vote entropy: with M members and two
	// classes there are only M+1 possible histograms, so SummarizeCounts
	// replaces two log2 calls per sample with a table lookup. Entries are
	// produced by the very stats.CountEntropy call the reference's
	// core.Estimator makes, so they are bit-identical. Built lazily (never
	// serialized; rebuilt per process).
	entropyOnce sync.Once
	entropy2    []float64
}

// entropyTable returns the memoised binary-histogram entropies, indexed by
// the class-1 count: Members()+1 entries.
func (p *Pipeline) entropyTable() []float64 {
	p.entropyOnce.Do(func() {
		m := p.ens.Size()
		tab := make([]float64, m+1)
		pair := make([]int, 2)
		for c := 0; c <= m; c++ {
			pair[0], pair[1] = m-c, c
			h, err := stats.CountEntropy(pair)
			if err != nil {
				return
			}
			tab[c] = h
		}
		p.entropy2 = tab
	})
	return p.entropy2
}

// Assessment is the trusted HMD's per-input output: the raw prediction,
// the vote-entropy uncertainty, and the vote distribution behind it.
type Assessment struct {
	Prediction int
	Entropy    float64
	VoteDist   []float64
}

// Train fits the full pipeline on the training split.
func Train(train *dataset.Dataset, cfg Config) (*Pipeline, error) {
	if train == nil || train.Len() == 0 {
		return nil, errors.New("hmd: empty training set")
	}
	if cfg.NewMember == nil {
		return nil, errors.New("hmd: config needs a NewMember factory")
	}
	if cfg.M <= 0 {
		cfg.M = 25
	}
	X := train.X()
	scaler, err := dataset.FitScaler(X)
	if err != nil {
		return nil, fmt.Errorf("hmd: scaler: %w", err)
	}
	Xs, err := scaler.Transform(X)
	if err != nil {
		return nil, fmt.Errorf("hmd: scale: %w", err)
	}

	var pca *reduce.PCA
	if cfg.PCAComponents > 0 {
		pca, err = reduce.FitPCA(Xs, cfg.PCAComponents)
		if err != nil {
			return nil, fmt.Errorf("hmd: pca: %w", err)
		}
		Xs, err = pca.Transform(Xs)
		if err != nil {
			return nil, fmt.Errorf("hmd: pca transform: %w", err)
		}
	}

	ens := ensemble.New(ensemble.Config{
		M:           cfg.M,
		New:         cfg.NewMember,
		Diversity:   cfg.Diversity,
		MaxSamples:  cfg.MaxSamples,
		MaxFeatures: cfg.MaxFeatures,
		Seed:        cfg.Seed,
		Workers:     cfg.Workers,
	})
	if err := ens.Fit(Xs, train.Y()); err != nil {
		return nil, fmt.Errorf("hmd: ensemble: %w", err)
	}
	return &Pipeline{
		cfg:    cfg,
		scaler: scaler,
		pca:    pca,
		ens:    ens,
	}, nil
}

// Project applies scaling and PCA to one raw feature vector, yielding the
// representation the ensemble members consume.
func (p *Pipeline) Project(x []float64) ([]float64, error) {
	z, err := p.scaler.TransformVec(x)
	if err != nil {
		return nil, err
	}
	if p.pca != nil {
		z, err = p.pca.TransformVec(z)
		if err != nil {
			return nil, err
		}
	}
	return z, nil
}

// Classes returns the width of the vote histogram — the counts/dist buffer
// size the scratch assessment paths require: dataset.NumClasses, the only
// labels a training set admits.
func (p *Pipeline) Classes() int { return dataset.NumClasses }

// projectedDim returns the dimensionality ensemble members consume: the
// PCA width when a PCA stage is fitted, the scaler width otherwise.
func (p *Pipeline) projectedDim() int {
	if p.pca != nil {
		return p.pca.K()
	}
	return p.scaler.Dim()
}

// MemberScratchDim returns the widest per-member input the ensemble can
// request — the input buffer size the vote-accumulation paths need.
func (p *Pipeline) MemberScratchDim() int {
	dim, _ := p.ens.MaxMemberDim(p.projectedDim()) // Train draws and GobDecode checks every subset
	return dim
}

// ProjectRowsScratch projects a batch of raw sample rows through scaling
// and PCA with zero steady-state allocations: scaling reads each row once
// and writes the standardised values straight into work (no separate
// batch-load copy); reduced is resized to receive the PCA projection when
// that stage exists. The returned matrix aliases one of the two scratches.
// Row i of the result is bit-identical to Project of rows[i]. Rows must
// all have InputDim features.
func (p *Pipeline) ProjectRowsScratch(rows [][]float64, work, reduced *linalg.Matrix) (*linalg.Matrix, error) {
	work.ResizeUnset(len(rows), p.scaler.Dim()) // TransformRowsInto writes every cell
	if err := p.scaler.TransformRowsInto(work, rows); err != nil {
		return nil, err
	}
	if p.pca == nil {
		return work, nil
	}
	reduced.ResizeUnset(work.Rows(), p.pca.K()) // MulInto writes every cell
	if err := p.pca.TransformInto(reduced, work); err != nil {
		return nil, err
	}
	return reduced, nil
}

// AccumulateVotes adds the votes of members [from, to) over every row of Z
// into the row-major rows x Classes() histogram slab counts. votes and
// input are caller-owned scratch (see ensemble.AccumulateVotes). ZT is an
// optional transpose of Z shared by members that want feature-major loads
// (see WantsCols); nil is always valid. A member vote outside [0,
// Classes()) is an error.
func (p *Pipeline) AccumulateVotes(Z, ZT *linalg.Matrix, counts []int, from, to int, votes []int, input []float64) error {
	return p.ens.AccumulateVotes(Z, ZT, counts, p.Classes(), from, to, votes, input)
}

// WantsCols reports whether AccumulateVotes would exploit a transposed
// copy of the projected batch. Callers that answer true compute the
// transpose once per batch and pass it to AccumulateVotes.
func (p *Pipeline) WantsCols() bool { return p.ens.WantsCols() }

// SummarizeCounts turns one row's accumulated vote histogram into an
// Assessment, writing the vote distribution into dist (len Classes()). The
// histogram must hold exactly Members() votes over the two classes; the
// entropy is read from the memoised table, bit-identical to the reference.
func (p *Pipeline) SummarizeCounts(counts []int, dist []float64) (Assessment, error) {
	tab := p.entropyTable()
	m := len(tab) - 1
	if len(counts) != 2 || len(dist) != 2 || counts[0] < 0 || counts[1] < 0 || counts[0]+counts[1] != m {
		return Assessment{}, fmt.Errorf("hmd: vote histogram %v is not %d votes over 2 classes", counts, m)
	}
	c0, c1 := counts[0], counts[1]
	inv := 1 / float64(m)
	dist[0], dist[1] = float64(c0)*inv, float64(c1)*inv
	pred := 0
	if c1 > c0 {
		pred = 1
	}
	return Assessment{Prediction: pred, Entropy: tab[c1], VoteDist: dist}, nil
}

// AssessProjected assesses an already-projected vector on the reference
// walk: every member's vote, summarised by core.Estimator.
func (p *Pipeline) AssessProjected(z []float64) (Assessment, error) {
	s, err := core.Estimator{Classes: dataset.NumClasses}.Summarize(p.ens.Votes(z))
	if err != nil {
		return Assessment{}, err
	}
	return Assessment{Prediction: s.Prediction, Entropy: s.Entropy, VoteDist: s.Dist}, nil
}

// Decompose splits the uncertainty of an already-projected vector into
// aleatoric and epistemic components (core.Decompose) from every member's
// Classes()-wide posterior.
func (p *Pipeline) Decompose(z []float64) (core.Decomposition, error) {
	return core.Decompose(p.ens.MemberProbas(z, p.Classes()))
}

// Assess runs the trusted path on a raw feature vector: label plus
// vote-entropy uncertainty.
func (p *Pipeline) Assess(x []float64) (Assessment, error) {
	z, err := p.Project(x)
	if err != nil {
		return Assessment{}, err
	}
	return p.AssessProjected(z)
}

// Ensemble exposes the trained ensemble (for the Fig. 9a size sweep).
func (p *Pipeline) Ensemble() *ensemble.Bagging { return p.ens }

// Members returns the number of trained ensemble members.
func (p *Pipeline) Members() int { return p.ens.Size() }

// InputDim returns the raw feature dimensionality the pipeline was fitted
// on (the scaler's input width, before any PCA reduction).
func (p *Pipeline) InputDim() int { return p.scaler.Dim() }

// Truncated returns a pipeline view restricted to the first m ensemble
// members, sharing the fitted scaler, PCA and members with the receiver —
// the Fig. 9a entropy-vs-ensemble-size sweep assesses through these views
// so one large fit serves every prefix.
func (p *Pipeline) Truncated(m int) (*Pipeline, error) {
	tr, err := p.ens.Truncated(m)
	if err != nil {
		return nil, err
	}
	return &Pipeline{cfg: p.cfg, scaler: p.scaler, pca: p.pca, ens: tr}, nil
}
