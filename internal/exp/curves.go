package exp

import (
	"fmt"

	"trusthmd/internal/core"
	"trusthmd/internal/gen"
)

// RejectionSeries is one curve of Fig. 7a / Fig. 9b: rejected percentage
// versus entropy threshold for one (model, split) pair.
type RejectionSeries struct {
	Model  string
	Split  string // "known" or "unknown"
	Points []core.SweepPoint
}

// CurvesResult reproduces Fig. 7a (DVFS) or Fig. 9b (HPC).
type CurvesResult struct {
	Dataset  string
	Series   []RejectionSeries
	Excluded map[string]string
}

// Fig7a sweeps the entropy threshold from 0.00 to 0.75 in steps of 0.05 on
// the DVFS dataset and reports the percentage of known and unknown inputs
// rejected by RF, LR and SVM ensembles (the paper's Fig. 7a).
func Fig7a(cfg Config) (*CurvesResult, error) {
	cfg = cfg.normalized()
	data, err := cfg.dvfsData()
	if err != nil {
		return nil, fmt.Errorf("exp: fig7a: %w", err)
	}
	return rejectionCurves(cfg, "DVFS", data, 0.75)
}

// Fig9b is the HPC counterpart (the paper's Fig. 9b): thresholds 0.00-0.80,
// RF and LR only — SVM does not converge and lands in Excluded.
func Fig9b(cfg Config) (*CurvesResult, error) {
	cfg = cfg.normalized()
	data, err := cfg.hpcData()
	if err != nil {
		return nil, fmt.Errorf("exp: fig9b: %w", err)
	}
	return rejectionCurves(cfg, "HPC", data, 0.80)
}

func rejectionCurves(cfg Config, name string, data gen.Splits, maxThr float64) (*CurvesResult, error) {
	thresholds, err := core.Thresholds(0, maxThr, 0.05)
	if err != nil {
		return nil, err
	}
	res := &CurvesResult{Dataset: name}
	res.Excluded, err = cfg.screenModels(name, data, func(model, split string, h []float64) error {
		pts, err := core.RejectionCurve(h, thresholds)
		if err != nil {
			return err
		}
		res.Series = append(res.Series, RejectionSeries{Model: model, Split: split, Points: pts})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints one row per threshold with one column per series, matching
// the curves of the figure.
func (r *CurvesResult) Render() string {
	figure := "Fig. 7a"
	if r.Dataset == "HPC" {
		figure = "Fig. 9b"
	}
	if len(r.Series) == 0 {
		return figure + ": no series (all models excluded)\n"
	}
	header := []string{"Threshold"}
	for _, s := range r.Series {
		header = append(header, fmt.Sprintf("%s-%s", displayModel(s.Model), s.Split))
	}
	var rows [][]string
	for i, pt := range r.Series[0].Points {
		row := []string{fmt.Sprintf("%.2f", pt.Threshold)}
		for _, s := range r.Series {
			row = append(row, fmt.Sprintf("%.1f%%", s.Points[i].RejectedPct))
		}
		rows = append(rows, row)
	}
	out := figure + ": rejected inputs vs entropy threshold, " + r.Dataset + " dataset\n" +
		table(header, rows)
	for model, reason := range r.Excluded {
		out += fmt.Sprintf("excluded %s: %s\n", displayModel(model), reason)
	}
	return out
}

// F1Series is one curve of Fig. 7b: rejection-aware F1 versus threshold.
type F1Series struct {
	Model   string
	Dataset string
	Points  []core.F1Point
}

// F1CurvesResult reproduces Fig. 7b.
type F1CurvesResult struct {
	Series []F1Series
}

// Fig7b sweeps the entropy threshold and reports the F1 score over accepted
// known-test predictions for the RF ensemble on both datasets (the paper's
// Fig. 7b: RF-DVFS and RF-HPC).
func Fig7b(cfg Config) (*F1CurvesResult, error) {
	cfg = cfg.normalized()
	res := &F1CurvesResult{}
	for _, d := range []struct {
		name string
		load func() (gen.Splits, error)
	}{
		{"DVFS", cfg.dvfsData},
		{"HPC", cfg.hpcData},
	} {
		data, err := d.load()
		if err != nil {
			return nil, fmt.Errorf("exp: fig7b %s: %w", d.name, err)
		}
		_, pts, err := cfg.rfF1Curve(data)
		if err != nil {
			return nil, fmt.Errorf("exp: fig7b %s: %w", d.name, err)
		}
		res.Series = append(res.Series, F1Series{Model: "rf", Dataset: d.name, Points: pts})
	}
	return res, nil
}

// Render prints the F1 (and precision/recall/rejection) per threshold.
func (r *F1CurvesResult) Render() string {
	if len(r.Series) == 0 {
		return "Fig. 7b: no series\n"
	}
	header := []string{"Threshold"}
	for _, s := range r.Series {
		name := fmt.Sprintf("%s-%s", displayModel(s.Model), s.Dataset)
		header = append(header, name+"-f1", name+"-rej")
	}
	var rows [][]string
	for i, pt := range r.Series[0].Points {
		row := []string{fmt.Sprintf("%.2f", pt.Threshold)}
		for _, s := range r.Series {
			row = append(row,
				fmt.Sprintf("%.3f", s.Points[i].F1),
				fmt.Sprintf("%.1f%%", s.Points[i].RejectedPct))
		}
		rows = append(rows, row)
	}
	return "Fig. 7b: f1-score vs entropy threshold (accepted known-test predictions)\n" +
		table(header, rows)
}
