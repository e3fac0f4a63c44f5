package exp

import (
	"fmt"

	"trusthmd/internal/gen"
	"trusthmd/pkg/dataset"
	"trusthmd/pkg/detector"
)

// SourceRow is one (dataset, split) cell of the A5 source-separation study:
// the mean total/aleatoric/epistemic uncertainty of a leaf-limited RF
// ensemble.
type SourceRow struct {
	Dataset   string
	Split     string // "known" or "unknown"
	Total     float64
	Aleatoric float64
	Epistemic float64
}

// SourcesResult is experiment A5 (extension — the paper's §VI names the
// separation of uncertainty sources as future work): the mutual-information
// decomposition applied to both datasets. Expected shape:
//
//   - DVFS unknown: epistemic-dominated (zero-days are out of distribution;
//     members disagree) — exactly the case retraining can fix;
//   - HPC known: aleatoric-dominated (members agree the inputs are
//     ambiguous) — the case no amount of data fixes, matching the paper's
//     verdict that the HPC dataset cannot yield a trustworthy HMD.
type SourcesResult struct {
	Rows []SourceRow
}

// AblationSources runs A5 with leaf-limited random forests: large leaves
// emit soft class posteriors, so a member can be *individually uncertain*
// (mixed leaf = aleatoric) as well as *collectively divided* (scattered
// thresholds = epistemic). Fully grown forests would register everything
// as epistemic; fully converged linear members register boundary ambiguity
// as aleatoric. The decomposition rides along on the batched assessment
// (WithDecomposition), as its last stage.
func AblationSources(cfg Config) (*SourcesResult, error) {
	cfg = cfg.normalized()
	res := &SourcesResult{}
	for _, d := range []struct {
		name string
		load func() (gen.Splits, error)
	}{
		{"DVFS", cfg.dvfsData},
		{"HPC", cfg.hpcData},
	} {
		data, err := d.load()
		if err != nil {
			return nil, fmt.Errorf("exp: ablation sources %s: %w", d.name, err)
		}
		det, err := cfg.train(data.Train, "rf",
			detector.WithTreeLimits(0, 25), detector.WithDecomposition(true))
		if err != nil {
			return nil, fmt.Errorf("exp: ablation sources %s: %w", d.name, err)
		}
		for _, e := range []struct {
			split string
			set   *dataset.Dataset
		}{{"known", data.Test}, {"unknown", data.Unknown}} {
			rs, err := det.AssessDataset(e.set)
			if err != nil {
				return nil, err
			}
			row := SourceRow{Dataset: d.name, Split: e.split}
			for _, r := range rs {
				row.Total += r.Decomposition.Total
				row.Aleatoric += r.Decomposition.Aleatoric
				row.Epistemic += r.Decomposition.Epistemic
			}
			n := float64(len(rs))
			row.Total /= n
			row.Aleatoric /= n
			row.Epistemic /= n
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// Render prints the decomposition table.
func (r *SourcesResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		share := 0.0
		if row.Total > 0 {
			share = row.Epistemic / row.Total
		}
		rows = append(rows, []string{
			row.Dataset, row.Split,
			fmt.Sprintf("%.3f", row.Total),
			fmt.Sprintf("%.3f", row.Aleatoric),
			fmt.Sprintf("%.3f", row.Epistemic),
			fmt.Sprintf("%.0f%%", 100*share),
		})
	}
	return "Ablation A5 (leaf-limited RF): uncertainty source separation (paper's future work)\n" +
		table([]string{"Dataset", "Split", "Total", "Aleatoric", "Epistemic", "Epistemic share"}, rows)
}
