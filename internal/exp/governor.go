package exp

import (
	"fmt"

	"trusthmd/internal/core"
	"trusthmd/internal/dvfs"
	"trusthmd/internal/gen"
	"trusthmd/internal/metrics"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/linalg"
)

// GovernorRow is one policy row of the E2 sensitivity study.
type GovernorRow struct {
	Policy         dvfs.Policy
	Accuracy       float64
	KnownEntropy   float64
	UnknownEntropy float64
	OperatingPoint core.OperatingPoint // at threshold 0.40
}

// GovernorResult is experiment E2 (extension): sensitivity of the DVFS HMD
// to the SoC's cpufreq governor policy. The telemetry an HMD sees is
// shaped by the power-management policy between the workload and the
// sensor; E2 retrains the RF pipeline under ondemand and conservative
// governors and compares detectability and zero-day separation. The
// substantive question: does the paper's approach survive a governor it
// was not designed around?
type GovernorResult struct {
	Rows []GovernorRow
}

// GovernorPolicies are the swept policies.
var GovernorPolicies = []dvfs.Policy{dvfs.Ondemand, dvfs.Conservative}

// GovernorSensitivity runs E2.
func GovernorSensitivity(cfg Config) (*GovernorResult, error) {
	cfg = cfg.normalized()
	sizes := cfg.scaled(gen.TableIDVFS)
	res := &GovernorResult{}
	for _, policy := range GovernorPolicies {
		simCfg := dvfs.DefaultConfig()
		simCfg.Policy = policy
		splits, err := gen.DVFSWithConfig(cfg.Seed+3, sizes, simCfg)
		if err != nil {
			return nil, fmt.Errorf("exp: governor %v: %w", policy, err)
		}
		d, err := cfg.train(splits.Train, "rf")
		if err != nil {
			return nil, fmt.Errorf("exp: governor %v: %w", policy, err)
		}
		rKnown, err := d.AssessDataset(splits.Test)
		if err != nil {
			return nil, err
		}
		rUnknown, err := d.AssessDataset(splits.Unknown)
		if err != nil {
			return nil, err
		}
		hKnown := detector.Entropies(rKnown)
		hUnknown := detector.Entropies(rUnknown)
		rep, err := metrics.Score(splits.Test.Y(), detector.Predictions(rKnown))
		if err != nil {
			return nil, err
		}
		op, err := core.At(HeadlineThreshold, hKnown, hUnknown)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, GovernorRow{
			Policy:         policy,
			Accuracy:       rep.Accuracy,
			KnownEntropy:   linalg.Mean(hKnown),
			UnknownEntropy: linalg.Mean(hUnknown),
			OperatingPoint: op,
		})
	}
	return res, nil
}

// Render prints the E2 table.
func (r *GovernorResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Policy.String(),
			fmt.Sprintf("%.3f", row.Accuracy),
			fmt.Sprintf("%.3f", row.KnownEntropy),
			fmt.Sprintf("%.3f", row.UnknownEntropy),
			fmt.Sprintf("%.1f%%", row.OperatingPoint.KnownRejectedPct),
			fmt.Sprintf("%.1f%%", row.OperatingPoint.UnknownRejectedPct),
		})
	}
	return "Experiment E2 (extension): DVFS governor-policy sensitivity (RF)\n" +
		table([]string{"Governor", "Accuracy", "KnownH", "UnknownH", "rejK@0.40", "rejU@0.40"}, rows)
}
