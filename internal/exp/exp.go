// Package exp is the experiment harness: one runner per table and figure of
// the paper's evaluation (cmd/hmdbench's experiments table indexes them by
// ID). Each runner regenerates the data, trains the pipelines and returns a
// result struct whose Render method prints the same rows or series the
// paper reports. The cmd/hmdbench binary and the repository's benchmarks both
// drive these runners.
package exp

import (
	"fmt"
	"math"
	"strings"

	"trusthmd/internal/gen"
	"trusthmd/pkg/dataset"
	"trusthmd/pkg/detector"
)

// Config controls an experiment run.
type Config struct {
	// Seed drives all data generation and training.
	Seed int64
	// Scale multiplies the paper's Table I split sizes; 1.0 reproduces the
	// full-size experiment and smaller values give quick runs. Values <= 0
	// default to 1.0. Split sizes have a floor so tiny scales stay valid.
	Scale float64
	// M is the ensemble size (default 25).
	M int
}

func (c Config) normalized() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.M <= 0 {
		c.M = 25
	}
	return c
}

func (c Config) scaled(s gen.Sizes) gen.Sizes {
	scale := func(n int, floor int) int {
		v := int(math.Round(float64(n) * c.Scale))
		if v < floor {
			return floor
		}
		return v
	}
	// Floors keep every application represented at least a few times.
	return gen.Sizes{
		Train:   scale(s.Train, 140),
		Test:    scale(s.Test, 70),
		Unknown: scale(s.Unknown, 40),
	}
}

// dvfsData generates the (possibly scaled) DVFS splits.
func (c Config) dvfsData() (gen.Splits, error) {
	return gen.DVFSWithSizes(c.Seed, c.scaled(gen.TableIDVFS))
}

// hpcData generates the (possibly scaled) HPC splits.
func (c Config) hpcData() (gen.Splits, error) {
	return gen.HPCWithSizes(c.Seed+1, c.scaled(gen.TableIHPC))
}

// modelSeedIndex preserves the historical per-family seed offsets (the
// seed formula used to be Seed + 1000*enumOrdinal), so the migration to
// registry names reproduces the exact ensembles of earlier runs.
var modelSeedIndex = map[string]int64{"rf": 0, "lr": 1, "svm": 2, "nb": 3, "knn": 4}

// detectorOpts returns the per-model training options used across all
// experiments. This is the calibration every experiment shares: random
// forests diversify through per-split feature sampling; logistic ensembles
// additionally use random feature subspaces (sklearn BaggingClassifier's
// max_features) because fully-converged linear members are otherwise
// nearly identical; SVMs train on plain bootstraps with a convergence
// check that trips on the overlapping HPC data.
func (c Config) detectorOpts(model string) []detector.Option {
	opts := []detector.Option{
		detector.WithModel(model),
		detector.WithEnsembleSize(c.M),
		detector.WithSeed(c.Seed + 1000*modelSeedIndex[model]),
		detector.WithThreshold(HeadlineThreshold),
	}
	switch model {
	case "lr":
		opts = append(opts, detector.WithMaxFeatures(0.45))
	case "svm":
		opts = append(opts, detector.WithSVMMaxObjective(0.3))
	}
	return opts
}

// train builds a detector for one base-classifier family with the shared
// experiment calibration plus any experiment-specific extra options.
func (c Config) train(train *dataset.Dataset, model string, extra ...detector.Option) (*detector.Detector, error) {
	return detector.New(train, append(c.detectorOpts(model), extra...)...)
}

// Models lists the base classifier families the paper evaluates, by their
// detector registry names.
var Models = []string{"rf", "lr", "svm"}

// displayModel renders a registry name the way the paper's tables do.
func displayModel(name string) string { return strings.ToUpper(name) }

// table renders rows as fixed-width columns.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
