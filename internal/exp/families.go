package exp

import (
	"fmt"

	"trusthmd/internal/metrics"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/linalg"
)

// FamilyRow summarises the uncertainty quality of one base-classifier
// family on the DVFS dataset: known-test accuracy, mean known/unknown vote
// entropy, and the AUC of entropy used as a zero-day detector (unknown =
// positive). AUC near 1 means entropy alone separates zero-days from known
// traffic; near 0.5 means the family's ensemble uncertainty is useless for
// screening — the axis on which the paper ranks RF > LR > SVM.
type FamilyRow struct {
	Model          string
	Accuracy       float64
	KnownEntropy   float64
	UnknownEntropy float64
	OODAUC         float64
}

// FamiliesResult is ablation A4 (extension): the model-family uncertainty
// study, covering the paper's three families plus Gaussian Naive Bayes and
// kNN from the Zhou et al. candidate list.
type FamiliesResult struct {
	Rows []FamilyRow
}

// A4Models is the family list of ablation A4, by detector registry name.
var A4Models = []string{"rf", "lr", "svm", "nb", "knn"}

// AblationFamilies runs A4 on the DVFS dataset.
func AblationFamilies(cfg Config) (*FamiliesResult, error) {
	cfg = cfg.normalized()
	data, err := cfg.dvfsData()
	if err != nil {
		return nil, fmt.Errorf("exp: ablation families: %w", err)
	}
	res := &FamiliesResult{}
	for _, model := range A4Models {
		var extra []detector.Option
		if model == "nb" || model == "knn" {
			// NB and kNN members are stable like SVMs; give them the same
			// random-subspace diversification as the linear ensemble.
			extra = append(extra, detector.WithMaxFeatures(0.45))
		}
		known, unknown, err := cfg.screen(data, model, extra...)
		if err != nil {
			return nil, fmt.Errorf("exp: ablation families %s: %w", model, err)
		}
		hKnown := detector.Entropies(known)
		hUnknown := detector.Entropies(unknown)
		rep, err := metrics.Score(data.Test.Y(), detector.Predictions(known))
		if err != nil {
			return nil, err
		}

		// Entropy as an OOD score: label known 0, unknown 1.
		labels := make([]int, 0, len(hKnown)+len(hUnknown))
		scores := make([]float64, 0, cap(labels))
		for _, h := range hKnown {
			labels = append(labels, 0)
			scores = append(scores, h)
		}
		for _, h := range hUnknown {
			labels = append(labels, 1)
			scores = append(scores, h)
		}
		auc, err := metrics.AUC(labels, scores)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, FamilyRow{
			Model:          model,
			Accuracy:       rep.Accuracy,
			KnownEntropy:   linalg.Mean(hKnown),
			UnknownEntropy: linalg.Mean(hUnknown),
			OODAUC:         auc,
		})
	}
	return res, nil
}

// Render prints the family study table.
func (r *FamiliesResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			displayModel(row.Model),
			fmt.Sprintf("%.3f", row.Accuracy),
			fmt.Sprintf("%.3f", row.KnownEntropy),
			fmt.Sprintf("%.3f", row.UnknownEntropy),
			fmt.Sprintf("%.3f", row.OODAUC),
		})
	}
	return "Ablation A4 (DVFS): base-classifier family study\n" +
		table([]string{"Model", "Accuracy", "KnownH", "UnknownH", "OOD-AUC"}, rows)
}
