package exp

import (
	"strings"
	"testing"

	"trusthmd/internal/gen"
)

// quickCfg is a scaled-down configuration for fast shape checks. The full
// Table I sizes are exercised by cmd/hmdbench and the benchmarks.
var quickCfg = Config{Seed: 11, Scale: 0.1, M: 15}

func TestTableIScaledCounts(t *testing.T) {
	res, err := TableI(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Samples <= 0 || row.Benign+row.Malware != row.Samples {
			t.Fatalf("inconsistent row %+v", row)
		}
		if row.Apps < 2 {
			t.Fatalf("row %+v has too few apps", row)
		}
	}
	if !strings.Contains(res.Render(), "Table I") {
		t.Fatal("render missing title")
	}
}

func TestTableIFullMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size generation")
	}
	res, err := TableI(Config{Seed: 1, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"DVFS/Train": 2100, "DVFS/Test (Known)": 700, "DVFS/Unknown": 284,
		"HPC/Train": 44605, "HPC/Test (Known)": 6372, "HPC/Unknown": 12727,
	}
	for _, row := range res.Rows {
		key := row.Dataset + "/" + row.Split
		if row.Samples != want[key] {
			t.Fatalf("%s: %d samples, want %d", key, row.Samples, want[key])
		}
	}
}

func boxFor(t *testing.T, res *BoxplotResult, model string, split string) EntropySummary {
	t.Helper()
	for _, b := range res.Boxes {
		if b.Model == model && b.Split == split {
			return b
		}
	}
	t.Fatalf("no box for %v %s", model, split)
	return EntropySummary{}
}

func TestFig4Shape(t *testing.T) {
	res, err := Fig4(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Excluded) != 0 {
		t.Fatalf("no DVFS model should be excluded: %v", res.Excluded)
	}
	// The paper's core DVFS finding: unknown entropies exceed known for RF
	// (and LR), while SVM's gap is poor.
	for _, model := range []string{"rf", "lr"} {
		k := boxFor(t, res, model, "known")
		u := boxFor(t, res, model, "unknown")
		if u.Summary.Mean <= k.Summary.Mean {
			t.Fatalf("%v: unknown mean %.3f must exceed known %.3f", model, u.Summary.Mean, k.Summary.Mean)
		}
	}
	rfGap := boxFor(t, res, "rf", "unknown").Summary.Mean -
		boxFor(t, res, "rf", "known").Summary.Mean
	svmGap := boxFor(t, res, "svm", "unknown").Summary.Mean -
		boxFor(t, res, "svm", "known").Summary.Mean
	if svmGap >= rfGap {
		t.Fatalf("SVM gap %.3f should be poorer than RF gap %.3f", svmGap, rfGap)
	}
	if !strings.Contains(res.Render(), "Fig. 4") {
		t.Fatal("render missing title")
	}
}

func TestFig5Shape(t *testing.T) {
	res, err := Fig5(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	// SVM must be excluded for non-convergence, as in the paper.
	if _, ok := res.Excluded["svm"]; !ok {
		t.Fatal("SVM should fail to converge on the HPC dataset")
	}
	// Known entropy is as high as unknown (within 35%): the class-overlap
	// signature of the HPC dataset.
	k := boxFor(t, res, "rf", "known")
	u := boxFor(t, res, "rf", "unknown")
	if k.Summary.Mean < 0.3 {
		t.Fatalf("HPC known entropy %.3f should be high", k.Summary.Mean)
	}
	if u.Summary.Mean > k.Summary.Mean*1.6 {
		t.Fatalf("HPC known %.3f and unknown %.3f entropies should be comparable", k.Summary.Mean, u.Summary.Mean)
	}
	if !strings.Contains(res.Render(), "Fig. 5") {
		t.Fatal("render missing title")
	}
}

func TestFig7aShape(t *testing.T) {
	res, err := Fig7a(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 6 {
		t.Fatalf("%d series, want 6 (3 models x 2 splits)", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != 16 {
			t.Fatalf("%v-%s: %d thresholds, want 16", s.Model, s.Split, len(s.Points))
		}
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].RejectedPct > s.Points[i-1].RejectedPct+1e-9 {
				t.Fatalf("%v-%s: rejection curve must be non-increasing", s.Model, s.Split)
			}
		}
	}
	// RF-unknown dominates RF-known at the paper's operating threshold.
	var rfKnown, rfUnknown RejectionSeries
	for _, s := range res.Series {
		if s.Model == "rf" {
			if s.Split == "known" {
				rfKnown = s
			} else {
				rfUnknown = s
			}
		}
	}
	idx04 := 8 // threshold 0.40
	if rfUnknown.Points[idx04].RejectedPct <= rfKnown.Points[idx04].RejectedPct+20 {
		t.Fatalf("RF at 0.40: unknown rejection %.1f%% must clearly exceed known %.1f%%",
			rfUnknown.Points[idx04].RejectedPct, rfKnown.Points[idx04].RejectedPct)
	}
	if !strings.Contains(res.Render(), "Fig. 7a") {
		t.Fatal("render missing title")
	}
}

func TestFig7bShape(t *testing.T) {
	res, err := Fig7b(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("%d series, want 2", len(res.Series))
	}
	var hpc F1Series
	for _, s := range res.Series {
		if s.Dataset == "HPC" {
			hpc = s
		}
	}
	// Rejecting more (lower threshold) must not hurt HPC F1: the uplift
	// the paper reports. Compare the strictest useful threshold to the
	// loosest.
	first, last := hpc.Points[1], hpc.Points[len(hpc.Points)-1]
	if first.F1 < last.F1-1e-9 {
		t.Fatalf("HPC F1 at strict threshold %.3f should be >= loose %.3f", first.F1, last.F1)
	}
	if !strings.Contains(res.Render(), "Fig. 7b") {
		t.Fatal("render missing title")
	}
}

func TestFig8SeparationContrast(t *testing.T) {
	dv, err := Fig8(quickCfg, "DVFS")
	if err != nil {
		t.Fatal(err)
	}
	hp, err := Fig8(quickCfg, "HPC")
	if err != nil {
		t.Fatal(err)
	}
	// The paper's qualitative contrast, made quantitative: DVFS classes
	// separate, HPC classes overlap.
	if dv.TrainSilhouette <= hp.TrainSilhouette {
		t.Fatalf("DVFS silhouette %.3f must exceed HPC %.3f", dv.TrainSilhouette, hp.TrainSilhouette)
	}
	if hp.TrainSilhouette > 0.25 {
		t.Fatalf("HPC silhouette %.3f should indicate overlap", hp.TrainSilhouette)
	}
	if len(dv.Points) != dv.SampledTrain+dv.SampledUnknown {
		t.Fatal("point count mismatch")
	}
	if _, err := Fig8(quickCfg, "bogus"); err == nil {
		t.Fatal("expected dataset error")
	}
	if !strings.Contains(dv.Render(), "Fig. 8") {
		t.Fatal("render missing title")
	}
}

func TestFig9aStabilises(t *testing.T) {
	res, err := Fig9a(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(Fig9aSizes) {
		t.Fatalf("%d points", len(res.Points))
	}
	// Unknown entropy exceeds known at every size >= 5.
	for _, p := range res.Points {
		if p.Members >= 5 && p.UnknownEntropy <= p.KnownEntropy {
			t.Fatalf("at %d members unknown %.3f <= known %.3f", p.Members, p.UnknownEntropy, p.KnownEntropy)
		}
	}
	// The estimate stabilises at some size well below the maximum (the
	// paper: ~20).
	if s := res.StableAfter(0.05); s > 50 {
		t.Fatalf("entropy should stabilise by 50 members, got %d", s)
	}
	if !strings.Contains(res.Render(), "Fig. 9a") {
		t.Fatal("render missing title")
	}
}

func TestFig9bShape(t *testing.T) {
	res, err := Fig9b(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Excluded["svm"]; !ok {
		t.Fatal("SVM should be excluded on HPC")
	}
	// Known and unknown curves track each other (the paper: rejected "in
	// the same fashion"). Compare RF curves at mid threshold.
	var rfKnown, rfUnknown RejectionSeries
	for _, s := range res.Series {
		if s.Model == "rf" {
			if s.Split == "known" {
				rfKnown = s
			} else {
				rfUnknown = s
			}
		}
	}
	mid := len(rfKnown.Points) / 2
	diff := rfUnknown.Points[mid].RejectedPct - rfKnown.Points[mid].RejectedPct
	if diff < -5 || diff > 40 {
		t.Fatalf("HPC known and unknown rejection should track: diff %.1f%%", diff)
	}
	if !strings.Contains(res.Render(), "Fig. 9b") {
		t.Fatal("render missing title")
	}
}

func TestHeadlines(t *testing.T) {
	res, err := Headlines(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	// H1: unknown rejection clearly exceeds known at 0.40.
	if res.DVFSOperatingPoint.UnknownRejectedPct < 50 {
		t.Fatalf("H1: unknown rejection %.1f%% too low", res.DVFSOperatingPoint.UnknownRejectedPct)
	}
	if res.DVFSOperatingPoint.KnownRejectedPct > 25 {
		t.Fatalf("H1: known rejection %.1f%% too high", res.DVFSOperatingPoint.KnownRejectedPct)
	}
	// H2: rejection improves HPC F1.
	if res.HPCAfterReject.F1 < res.HPCBaseline.F1 {
		t.Fatalf("H2: rejection must not lower F1 (%.3f -> %.3f)", res.HPCBaseline.F1, res.HPCAfterReject.F1)
	}
	if res.HPCBaseline.Accuracy < 0.6 || res.HPCBaseline.Accuracy > 0.95 {
		t.Fatalf("H2: baseline accuracy %.3f outside the overlapping-classes regime", res.HPCBaseline.Accuracy)
	}
	if !strings.Contains(res.Render(), "H1") || !strings.Contains(res.Render(), "H2") {
		t.Fatal("render missing headline lines")
	}
}

func TestAblationPlatt(t *testing.T) {
	res, err := AblationPlatt(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Platt confidence barely drops on OOD; vote entropy rises clearly.
	confGap := res.MeanConfidenceKnown - res.MeanConfidenceUnknown
	entGap := res.MeanEntropyUnknown - res.MeanEntropyKnown
	if entGap <= 0 {
		t.Fatalf("vote entropy gap %.3f must be positive", entGap)
	}
	if confGap > 0.4 {
		t.Fatalf("platt confidence gap %.3f unexpectedly large", confGap)
	}
	if res.MeanConfidenceUnknown < 0.5 {
		t.Fatalf("platt confidence is max(p,1-p), got %.3f", res.MeanConfidenceUnknown)
	}
	if !strings.Contains(res.Render(), "A1") {
		t.Fatal("render missing title")
	}
}

func TestAblationPosterior(t *testing.T) {
	res, err := AblationPosterior(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.VoteUnknown <= row.VoteKnown {
			t.Fatalf("%v: vote entropy gap must be positive", row.Model)
		}
		if row.PosteriorUnknown <= row.PosteriorKnown {
			t.Fatalf("%v: posterior entropy gap must be positive", row.Model)
		}
	}
	// Fully grown trees: vote and posterior entropies coincide.
	rf := res.Rows[0]
	if diff := rf.VoteUnknown - rf.PosteriorUnknown; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("RF vote and posterior entropy should coincide for pure leaves: %v", diff)
	}
	if !strings.Contains(res.Render(), "A2") {
		t.Fatal("render missing title")
	}
}

func TestAblationDiversity(t *testing.T) {
	res, err := AblationDiversity(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaggingUnknown <= res.BaggingKnown {
		t.Fatal("bagging gap must be positive")
	}
	if !strings.Contains(res.Render(), "A3") {
		t.Fatal("render missing title")
	}
}

func TestConfigNormalization(t *testing.T) {
	c := Config{}.normalized()
	if c.Scale != 1 || c.M != 25 {
		t.Fatalf("defaults %+v", c)
	}
	s := Config{Scale: 0.0001}.scaled(gen.TableIDVFS)
	if s.Train < 140 || s.Test < 70 || s.Unknown < 40 {
		t.Fatalf("floors not applied: %+v", s)
	}
}

func TestAblationFamilies(t *testing.T) {
	res, err := AblationFamilies(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(A4Models) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(A4Models))
	}
	var rf, svm FamilyRow
	for _, row := range res.Rows {
		if row.Accuracy < 0.8 {
			t.Fatalf("%v: accuracy %.3f too low on DVFS", row.Model, row.Accuracy)
		}
		if row.OODAUC < 0.4 {
			t.Fatalf("%v: OOD AUC %.3f below chance", row.Model, row.OODAUC)
		}
		switch row.Model {
		case "rf":
			rf = row
		case "svm":
			svm = row
		}
	}
	// The paper's ranking on DVFS: RF uncertainty beats SVM uncertainty.
	if rf.OODAUC <= svm.OODAUC {
		t.Fatalf("RF OOD AUC %.3f should exceed SVM %.3f", rf.OODAUC, svm.OODAUC)
	}
	if !strings.Contains(res.Render(), "A4") {
		t.Fatal("render missing title")
	}
}

func TestAblationSources(t *testing.T) {
	res, err := AblationSources(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(res.Rows))
	}
	rows := map[string]SourceRow{}
	for _, row := range res.Rows {
		rows[row.Dataset+"/"+row.Split] = row
		if row.Epistemic < 0 || row.Aleatoric < 0 {
			t.Fatalf("negative component: %+v", row)
		}
		if diff := row.Total - row.Aleatoric - row.Epistemic; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("decomposition identity violated: %+v", row)
		}
	}
	// DVFS: zero-days add mostly *epistemic* uncertainty.
	if rows["DVFS/unknown"].Epistemic < 1.5*rows["DVFS/known"].Epistemic {
		t.Fatalf("DVFS epistemic should jump on unknowns: %.3f vs %.3f",
			rows["DVFS/unknown"].Epistemic, rows["DVFS/known"].Epistemic)
	}
	// HPC: epistemic barely moves between splits (unknowns are not OOD)
	// and aleatoric dominates both.
	hk, hu := rows["HPC/known"], rows["HPC/unknown"]
	if d := hu.Epistemic - hk.Epistemic; d > 0.15 || d < -0.15 {
		t.Fatalf("HPC epistemic should track across splits: %.3f vs %.3f", hk.Epistemic, hu.Epistemic)
	}
	if hk.Aleatoric <= hk.Epistemic {
		t.Fatalf("HPC known should be aleatoric-dominated: %+v", hk)
	}
	if !strings.Contains(res.Render(), "A5") {
		t.Fatal("render missing title")
	}
}

func TestEMGeneralization(t *testing.T) {
	res, err := EMGeneralization(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Accuracy < 0.85 {
			t.Fatalf("%v: EM accuracy %.3f too low", row.Model, row.Accuracy)
		}
		if row.UnknownEntropy <= row.KnownEntropy {
			t.Fatalf("%v: unknown entropy %.3f must exceed known %.3f",
				row.Model, row.UnknownEntropy, row.KnownEntropy)
		}
	}
	// The framework generalises: RF flags EM zero-days at 0.40.
	rf := res.Rows[0]
	if rf.OperatingPoint.UnknownRejectedPct <= rf.OperatingPoint.KnownRejectedPct+15 {
		t.Fatalf("EM RF operating point too weak: %+v", rf.OperatingPoint)
	}
	if !strings.Contains(res.Render(), "E1") {
		t.Fatal("render missing title")
	}
}

func TestGovernorSensitivity(t *testing.T) {
	res, err := GovernorSensitivity(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Accuracy < 0.85 {
			t.Fatalf("%v: accuracy %.3f", row.Policy, row.Accuracy)
		}
		if row.UnknownEntropy <= row.KnownEntropy {
			t.Fatalf("%v: unknown entropy %.3f must exceed known %.3f",
				row.Policy, row.UnknownEntropy, row.KnownEntropy)
		}
	}
	if !strings.Contains(res.Render(), "E2") {
		t.Fatal("render missing title")
	}
}
