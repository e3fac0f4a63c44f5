package exp

import (
	"fmt"

	"trusthmd/internal/gen"
)

// EMRow is one model row of the E1 sensor-generalisation study.
type EMRow struct {
	Model string
	ScreenRow
}

// EMResult is experiment E1 (extension): the trusted-HMD framework applied
// unchanged to a third telemetry substrate — EM side-channel emission
// spectra (the HMD family of Nazari et al. [4], cited in the paper's
// introduction). The expected shape matches DVFS: classes are disjoint in
// spectral space, unknowns fall in the spectral gap, RF uncertainty flags
// them.
type EMResult struct {
	Rows []EMRow
}

// EMGeneralization runs E1 with the RF and LR pipelines.
func EMGeneralization(cfg Config) (*EMResult, error) {
	cfg = cfg.normalized()
	data, err := gen.EMWithSizes(cfg.Seed+2, cfg.scaled(gen.EMSizes))
	if err != nil {
		return nil, fmt.Errorf("exp: em generalization: %w", err)
	}
	res := &EMResult{}
	for _, model := range []string{"rf", "lr"} {
		row, err := cfg.screenRow(data, model)
		if err != nil {
			return nil, fmt.Errorf("exp: em generalization %s: %w", model, err)
		}
		res.Rows = append(res.Rows, EMRow{Model: model, ScreenRow: row})
	}
	return res, nil
}

// Render prints the E1 table.
func (r *EMResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, append([]string{displayModel(row.Model)}, row.cells()...))
	}
	return "Experiment E1 (extension): trusted HMD on EM emission telemetry\n" +
		table(append([]string{"Model"}, screenColumns...), rows)
}
