// Package exp is the experiment harness: one runner per table and figure of
// the paper's evaluation, listed by ID in Experiments, the one list of the
// paper's artefacts. Each runner regenerates its data, trains and assesses
// its pipelines through one screening step (Config.screen) and returns a
// result whose Render method prints the rows or series the paper reports.
// cmd/hmdbench, its golden renderings and the repository's
// BenchmarkExperiments all iterate Experiments. Runners share no state: a
// rendering never depends on which runners ran before it.
package exp

import (
	"fmt"
	"math"
	"strings"

	"trusthmd/internal/core"
	"trusthmd/internal/gen"
	"trusthmd/internal/metrics"
	"trusthmd/pkg/dataset"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/linalg"
)

// Renderer is an experiment's result: Render prints it as the paper's
// table or figure.
type Renderer interface{ Render() string }

// Experiment is one artefact of the paper's evaluation.
type Experiment struct {
	ID  string
	Run func(Config) (Renderer, error)
}

// result adapts a runner returning its own result type to Experiment.Run.
func result[R Renderer](f func(Config) (R, error)) func(Config) (Renderer, error) {
	return func(cfg Config) (Renderer, error) { return f(cfg) }
}

// Experiments is the index of the paper's artefacts, in the order
// `hmdbench -exp all` runs them: T = table, F = figure, H = the headline
// numbers, A = ablations, E = extensions beyond the paper.
var Experiments = []Experiment{
	{"T1", result(TableI)},
	{"F4", result(Fig4)},
	{"F5", result(Fig5)},
	{"F7a", result(Fig7a)},
	{"F7b", result(Fig7b)},
	{"F8", result(fig8Panels)},
	{"F9a", result(Fig9a)},
	{"F9b", result(Fig9b)},
	{"H", result(Headlines)},
	{"A1", result(AblationPlatt)},
	{"A2", result(AblationPosterior)},
	{"A3", result(AblationDiversity)},
	{"A4", result(AblationFamilies)},
	{"A5", result(AblationSources)},
	{"E1", result(EMGeneralization)},
	{"E2", result(GovernorSensitivity)},
}

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

// screen trains model on data.Train with the shared calibration plus
// extra, then returns its verdicts on the known test split and on the
// unknown split. A training error comes back as it is, so a caller can tell
// a family that did not converge.
func (c Config) screen(data gen.Splits, model string, extra ...detector.Option) (known, unknown []detector.Result, err error) {
	d, err := c.train(data.Train, model, extra...)
	if err != nil {
		return nil, nil, err
	}
	if known, err = d.AssessDataset(data.Test); err != nil {
		return nil, nil, err
	}
	if unknown, err = d.AssessDataset(data.Unknown); err != nil {
		return nil, nil, err
	}
	return known, unknown, nil
}

// ScreenRow is one screened pipeline as E1 and E2 report it.
type ScreenRow struct {
	Accuracy       float64 // on the known test split
	KnownEntropy   float64
	UnknownEntropy float64
	OperatingPoint core.OperatingPoint // at HeadlineThreshold
}

// screenRow screens model on data and summarises its verdicts.
func (c Config) screenRow(data gen.Splits, model string) (ScreenRow, error) {
	known, unknown, err := c.screen(data, model)
	if err != nil {
		return ScreenRow{}, err
	}
	hKnown, hUnknown := detector.Entropies(known), detector.Entropies(unknown)
	rep, err := metrics.Score(data.Test.Y(), detector.Predictions(known))
	if err != nil {
		return ScreenRow{}, err
	}
	op, err := core.At(HeadlineThreshold, hKnown, hUnknown)
	if err != nil {
		return ScreenRow{}, err
	}
	return ScreenRow{
		Accuracy:       rep.Accuracy,
		KnownEntropy:   linalg.Mean(hKnown),
		UnknownEntropy: linalg.Mean(hUnknown),
		OperatingPoint: op,
	}, nil
}

// screenColumns heads the columns ScreenRow.cells renders.
var screenColumns = []string{"Accuracy", "KnownH", "UnknownH", "rejK@0.40", "rejU@0.40"}

// cells renders the row's numbers as E1's and E2's tables print them.
func (r ScreenRow) cells() []string {
	return []string{
		fmt.Sprintf("%.3f", r.Accuracy),
		fmt.Sprintf("%.3f", r.KnownEntropy),
		fmt.Sprintf("%.3f", r.UnknownEntropy),
		fmt.Sprintf("%.1f%%", r.OperatingPoint.KnownRejectedPct),
		fmt.Sprintf("%.1f%%", r.OperatingPoint.UnknownRejectedPct),
	}
}

// screenModels screens every family of Models on data and hands f the
// entropies of each split, known first. A family that does not converge is
// recorded in the returned map with the reason instead, as the paper
// excludes SVM from its HPC figures.
func (c Config) screenModels(name string, data gen.Splits, f func(model, split string, h []float64) error) (map[string]string, error) {
	excluded := map[string]string{}
	for _, model := range Models {
		known, unknown, err := c.screen(data, model)
		if detector.IsNoConvergence(err) {
			excluded[model] = err.Error()
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("exp: %s %s: %w", name, model, err)
		}
		if err := f(model, "known", detector.Entropies(known)); err != nil {
			return nil, err
		}
		if err := f(model, "unknown", detector.Entropies(unknown)); err != nil {
			return nil, err
		}
	}
	return excluded, nil
}

// rfF1Curve trains the RF pipeline on data.Train and sweeps the entropy
// threshold from 0.05 to 0.85 over its known-test verdicts, scoring the
// accepted predictions: one series of Fig. 7b, and H2's curve. It returns
// the verdicts too.
func (c Config) rfF1Curve(data gen.Splits) ([]detector.Result, []core.F1Point, error) {
	thresholds, err := core.Thresholds(0.05, 0.85, 0.05)
	if err != nil {
		return nil, nil, err
	}
	d, err := c.train(data.Train, "rf")
	if err != nil {
		return nil, nil, err
	}
	rs, err := d.AssessDataset(data.Test)
	if err != nil {
		return nil, nil, err
	}
	pts, err := core.F1Curve(data.Test.Y(), detector.Predictions(rs), detector.Entropies(rs), thresholds)
	return rs, pts, err
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
