package exp

import (
	"fmt"

	"trusthmd/internal/dvfs"
	"trusthmd/internal/gen"
)

// GovernorRow is one policy row of the E2 sensitivity study.
type GovernorRow struct {
	Policy dvfs.Policy
	ScreenRow
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
		row, err := cfg.screenRow(splits, "rf")
		if err != nil {
			return nil, fmt.Errorf("exp: governor %v: %w", policy, err)
		}
		res.Rows = append(res.Rows, GovernorRow{Policy: policy, ScreenRow: row})
	}
	return res, nil
}

// Render prints the E2 table.
func (r *GovernorResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, append([]string{row.Policy.String()}, row.cells()...))
	}
	return "Experiment E2 (extension): DVFS governor-policy sensitivity (RF)\n" +
		table(append([]string{"Governor"}, screenColumns...), rows)
}
