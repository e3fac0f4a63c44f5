package exp

import (
	"fmt"

	"trusthmd/internal/core"
	"trusthmd/internal/metrics"
	"trusthmd/pkg/detector"
)

// HeadlineResult holds the paper's two quantitative headline claims.
type HeadlineResult struct {
	// H1 (§V-A): DVFS RF at entropy threshold 0.40 rejects ~95 % of
	// unknown workloads while rejecting < 5 % of known workloads.
	DVFSOperatingPoint core.OperatingPoint
	// H2 (§V-B): HPC RF accuracy ~0.84 on known data; rejecting uncertain
	// predictions raises F1 to ~0.95 via higher precision.
	HPCBaseline      metrics.Report
	HPCAfterReject   core.F1Point
	HPCRejectedAtOpt float64
}

// HeadlineThreshold is the paper's chosen DVFS operating threshold.
const HeadlineThreshold = 0.40

// Headlines computes both headline numbers with the RF pipelines.
func Headlines(cfg Config) (*HeadlineResult, error) {
	cfg = cfg.normalized()
	res := &HeadlineResult{}

	// H1: DVFS RF operating point.
	dvfs, err := cfg.dvfsData()
	if err != nil {
		return nil, fmt.Errorf("exp: headlines: %w", err)
	}
	known, unknown, err := cfg.screen(dvfs, "rf")
	if err != nil {
		return nil, fmt.Errorf("exp: headlines dvfs: %w", err)
	}
	res.DVFSOperatingPoint, err = core.At(HeadlineThreshold,
		detector.Entropies(known), detector.Entropies(unknown))
	if err != nil {
		return nil, err
	}

	// H2: HPC RF F1 before and after rejection.
	hpc, err := cfg.hpcData()
	if err != nil {
		return nil, fmt.Errorf("exp: headlines: %w", err)
	}
	rs, curve, err := cfg.rfF1Curve(hpc)
	if err != nil {
		return nil, fmt.Errorf("exp: headlines hpc: %w", err)
	}
	res.HPCBaseline, err = metrics.Score(hpc.Test.Y(), detector.Predictions(rs))
	if err != nil {
		return nil, err
	}
	// Pick the best F1 over the threshold grid, as the paper's "upon
	// rejecting the uncertain predictions" (it does not fix a threshold).
	best := curve[0]
	for _, pt := range curve[1:] {
		if pt.F1 > best.F1 {
			best = pt
		}
	}
	res.HPCAfterReject = best
	res.HPCRejectedAtOpt = best.RejectedPct
	return res, nil
}

// Render prints the paper-vs-measured headline comparison.
func (r *HeadlineResult) Render() string {
	out := "Headline results\n"
	out += fmt.Sprintf(
		"H1 (DVFS RF @ threshold %.2f): unknown rejected %.1f%% (paper ~95%%), known rejected %.1f%% (paper <5%%)\n",
		HeadlineThreshold, r.DVFSOperatingPoint.UnknownRejectedPct, r.DVFSOperatingPoint.KnownRejectedPct)
	out += fmt.Sprintf(
		"H2 (HPC RF): baseline acc %.3f / f1 %.3f (paper ~0.84); after rejection f1 %.3f at threshold %.2f rejecting %.1f%% (paper ~0.95)\n",
		r.HPCBaseline.Accuracy, r.HPCBaseline.F1, r.HPCAfterReject.F1, r.HPCAfterReject.Threshold, r.HPCRejectedAtOpt)
	return out
}
