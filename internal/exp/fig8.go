package exp

import (
	"fmt"
	"math/rand"

	"trusthmd/internal/gen"
	"trusthmd/internal/reduce"
	"trusthmd/internal/stats"
	"trusthmd/pkg/dataset"
)

// TSNEPoint is one embedded sample of Fig. 8.
type TSNEPoint struct {
	X, Y  float64
	Label int    // dataset.Benign / dataset.Malware
	Group string // "train" or "unknown"
	App   string
}

// TSNEResult reproduces one panel of the paper's Fig. 8: a 2-D t-SNE
// embedding of the training data plus the unknown data, with a quantitative
// separation score. The paper reads the plots qualitatively — DVFS classes
// disjoint, HPC classes overlapping; we report the class silhouette of the
// embedded training points, which captures the same distinction
// numerically.
type TSNEResult struct {
	Dataset string
	Points  []TSNEPoint
	// TrainSilhouette is the benign-vs-malware silhouette of the embedded
	// training subsample: near 1 = disjoint classes, near 0 = overlap.
	TrainSilhouette float64
	// SampledTrain/SampledUnknown record the subsample sizes (exact t-SNE
	// is O(n^2); the embedding uses a stratified subsample).
	SampledTrain   int
	SampledUnknown int
}

// Fig8 embeds a stratified subsample of the chosen dataset ("DVFS" or
// "HPC") with t-SNE (perplexity 30) and scores class separation.
func Fig8(cfg Config, which string) (*TSNEResult, error) {
	cfg = cfg.normalized()
	var (
		data gen.Splits
		err  error
	)
	switch which {
	case "DVFS":
		data, err = cfg.dvfsData()
	case "HPC":
		data, err = cfg.hpcData()
	default:
		return nil, fmt.Errorf("exp: fig8: unknown dataset %q", which)
	}
	if err != nil {
		return nil, fmt.Errorf("exp: fig8 %s: %w", which, err)
	}

	const maxTrain, maxUnknown = 500, 150
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	train := subsample(data.Train, maxTrain, rng)
	unknown := subsample(data.Unknown, maxUnknown, rng)

	// Standardise features on the training subsample before embedding.
	scaler, err := dataset.FitScaler(train.X())
	if err != nil {
		return nil, err
	}
	all, err := train.Merge(unknown)
	if err != nil {
		return nil, err
	}
	Xs, err := scaler.Transform(all.X())
	if err != nil {
		return nil, err
	}
	emb, err := reduce.FitTSNE(Xs, reduce.TSNEConfig{
		Perplexity: 30, Iterations: 400, LearningRate: 100, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("exp: fig8 %s: tsne: %w", which, err)
	}

	res := &TSNEResult{Dataset: which, SampledTrain: train.Len(), SampledUnknown: unknown.Len()}
	var trainPts [][]float64
	var trainLabels []int
	for i := 0; i < all.Len(); i++ {
		s := all.At(i)
		group := "train"
		if i >= train.Len() {
			group = "unknown"
		}
		pt := TSNEPoint{X: emb.At(i, 0), Y: emb.At(i, 1), Label: s.Label, Group: group, App: s.App}
		res.Points = append(res.Points, pt)
		if group == "train" {
			trainPts = append(trainPts, emb.Row(i))
			trainLabels = append(trainLabels, s.Label)
		}
	}
	sil, err := stats.Silhouette(trainPts, trainLabels)
	if err != nil {
		return nil, err
	}
	res.TrainSilhouette = sil
	return res, nil
}

func subsample(d *dataset.Dataset, max int, rng *rand.Rand) *dataset.Dataset {
	if d.Len() <= max {
		return d
	}
	s, err := d.TakeN(max, rng)
	if err != nil { // cannot happen: max < Len
		panic(err)
	}
	return s
}

// Render summarises the embedding: per (group, class) centroid and spread,
// plus the separation silhouette. Full coordinates are available in Points
// (cmd/hmdbench -tsne-csv dumps them for plotting).
func (r *TSNEResult) Render() string {
	type key struct {
		group string
		label int
	}
	cells := map[key][]TSNEPoint{}
	for _, p := range r.Points {
		k := key{p.Group, p.Label}
		cells[k] = append(cells[k], p)
	}
	var rows [][]string
	for _, k := range []key{
		{"train", dataset.Benign}, {"train", dataset.Malware},
		{"unknown", dataset.Benign}, {"unknown", dataset.Malware},
	} {
		pts := cells[k]
		if len(pts) == 0 {
			continue
		}
		var mx, my stats.Moments
		for _, p := range pts {
			mx.Add(p.X)
			my.Add(p.Y)
		}
		class := "benign"
		if k.label == dataset.Malware {
			class = "malware"
		}
		rows = append(rows, []string{
			k.group, class, fmt.Sprint(len(pts)),
			fmt.Sprintf("(%.1f, %.1f)", mx.Mean(), my.Mean()),
			fmt.Sprintf("(%.1f, %.1f)", mx.Std(), my.Std()),
		})
	}
	out := fmt.Sprintf("Fig. 8 (%s): t-SNE embedding of train + unknown data (n=%d+%d)\n",
		r.Dataset, r.SampledTrain, r.SampledUnknown)
	out += table([]string{"Group", "Class", "N", "Centroid", "Std"}, rows)
	out += fmt.Sprintf("train benign-vs-malware silhouette: %.3f", r.TrainSilhouette)
	if r.TrainSilhouette > 0.3 {
		out += "  (disjoint classes)\n"
	} else {
		out += "  (overlapping classes)\n"
	}
	return out
}
