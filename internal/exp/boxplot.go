package exp

import (
	"fmt"

	"trusthmd/internal/gen"
	"trusthmd/internal/stats"
)

// EntropySummary is one box of Figs. 4/5: the distribution of estimated
// entropies for one (model, split) pair.
type EntropySummary struct {
	Model   string
	Split   string // "known" or "unknown"
	Summary stats.FiveNumber
}

// BoxplotResult reproduces Fig. 4 (DVFS) or Fig. 5 (HPC).
type BoxplotResult struct {
	Dataset string
	Boxes   []EntropySummary
	// Excluded records models that could not be trained, with the reason —
	// the paper excludes SVM from Fig. 5 because it "failed to converge
	// using the bootstrapped dataset".
	Excluded map[string]string
}

// Fig4 computes the entropy box plots of the paper's Fig. 4: DVFS dataset,
// RF / LR / SVM ensembles, known vs unknown inputs.
func Fig4(cfg Config) (*BoxplotResult, error) {
	cfg = cfg.normalized()
	data, err := cfg.dvfsData()
	if err != nil {
		return nil, fmt.Errorf("exp: fig4: %w", err)
	}
	return entropyBoxes(cfg, "DVFS", data)
}

// Fig5 computes the entropy box plots of the paper's Fig. 5: HPC dataset.
// The SVM ensemble fails to converge on the overlapping HPC classes and is
// recorded in Excluded rather than aborting the experiment, exactly as in
// the paper's §V-B.
func Fig5(cfg Config) (*BoxplotResult, error) {
	cfg = cfg.normalized()
	data, err := cfg.hpcData()
	if err != nil {
		return nil, fmt.Errorf("exp: fig5: %w", err)
	}
	return entropyBoxes(cfg, "HPC", data)
}

func entropyBoxes(cfg Config, name string, data gen.Splits) (*BoxplotResult, error) {
	res := &BoxplotResult{Dataset: name}
	var err error
	res.Excluded, err = cfg.screenModels(name, data, func(model, split string, h []float64) error {
		s, err := stats.Summarize(h)
		if err != nil {
			return fmt.Errorf("exp: %s %s %s: %w", name, model, split, err)
		}
		res.Boxes = append(res.Boxes, EntropySummary{Model: model, Split: split, Summary: s})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints one row per box with the five-number summary.
func (r *BoxplotResult) Render() string {
	figure := "Fig. 4"
	if r.Dataset == "HPC" {
		figure = "Fig. 5"
	}
	rows := make([][]string, 0, len(r.Boxes))
	for _, b := range r.Boxes {
		rows = append(rows, []string{
			displayModel(b.Model), b.Split,
			fmt.Sprintf("%.3f", b.Summary.Min),
			fmt.Sprintf("%.3f", b.Summary.Q1),
			fmt.Sprintf("%.3f", b.Summary.Median),
			fmt.Sprintf("%.3f", b.Summary.Q3),
			fmt.Sprintf("%.3f", b.Summary.Max),
			fmt.Sprintf("%.3f", b.Summary.Mean),
		})
	}
	out := figure + ": estimated entropies, " + r.Dataset + " dataset\n" +
		table([]string{"Model", "Split", "Min", "Q1", "Median", "Q3", "Max", "Mean"}, rows)
	for model, reason := range r.Excluded {
		out += fmt.Sprintf("excluded %s: %s\n", displayModel(model), reason)
	}
	return out
}
