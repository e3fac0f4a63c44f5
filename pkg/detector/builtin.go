package detector

import (
	"io"

	"trusthmd/internal/ml/bayes"
	"trusthmd/internal/ml/knn"
	"trusthmd/internal/ml/linear"
	"trusthmd/internal/ml/tree"
	"trusthmd/pkg/dataset"
	"trusthmd/pkg/model"
)

// The built-in base-classifier families: the paper's three (random forest,
// logistic regression, SVM) plus the Gaussian NB and kNN extensions from
// the Zhou et al. candidate list. Their concrete types gob-self-register in
// the internal/ml packages, so Save/Load works without prototypes here.
func init() {
	Register("rf", func(p Params) model.Factory {
		return func(seed int64) model.Classifier {
			// MaxFeatures -1 resolves to sqrt(d) at fit time.
			return tree.New(tree.Config{
				MaxFeatures: -1,
				MaxDepth:    p.TreeMaxDepth,
				MinLeaf:     p.TreeMinLeaf,
				Seed:        seed,
			})
		}
	})
	Register("lr", func(Params) model.Factory {
		return func(seed int64) model.Classifier {
			return linear.NewLogistic(linear.LogisticConfig{Seed: seed, Epochs: 20, Batch: 16})
		}
	})
	Register("svm", func(p Params) model.Factory {
		return func(seed int64) model.Classifier {
			return linear.NewSVM(linear.SVMConfig{Seed: seed, Epochs: 100, MaxObjective: p.SVMMaxObjective})
		}
	})
	Register("nb", func(Params) model.Factory {
		return func(int64) model.Classifier {
			return bayes.New(bayes.Config{})
		}
	})
	Register("knn", func(Params) model.Factory {
		return func(int64) model.Classifier {
			return knn.New(knn.Config{K: 5})
		}
	})
	pinGobTypes()
}

// pinGobTypes saves one tiny trained detector of each built-in family, and
// then one PCA pipeline, to io.Discard in a fixed order. encoding/gob
// numbers types process-wide in the order a process first encodes them,
// and every pipeline component writes a gob stream of its own, so without
// this the bytes Save writes for one model would depend on what the
// process had encoded before. rf goes first: the blobs pinned in the tests
// were written by processes whose first Save was an rf one. A family
// registered elsewhere pins its own types from its init the same way
// (pkg/model/gbm does), or they are numbered at its first Save.
func pinGobTypes() {
	tiny := dataset.New(4)
	for i := 0; i < 12; i++ {
		label := i % 2
		f := float64(i%7) + 3*float64(label)
		if err := tiny.Add(dataset.Sample{Features: []float64{f, float64(i % 5), -f, float64(i % 3)}, Label: label}); err != nil {
			panic(err)
		}
	}
	for _, opts := range [][]Option{
		{WithModel("rf")}, {WithModel("lr")}, {WithModel("svm")}, {WithModel("nb")}, {WithModel("knn")},
		{WithModel("rf"), WithPCA(2)},
	} {
		d, err := New(tiny, append(opts, WithEnsembleSize(2), WithWorkers(1))...)
		if err == nil {
			err = d.Save(io.Discard)
		}
		if err != nil {
			panic("detector: pinning gob's type numbers: " + err.Error())
		}
	}
}
