// Package workload defines the application catalogue behind both telemetry
// substrates: every sample in the synthetic DVFS and HPC datasets is
// attributed to an application (or malware family) with fixed behaviour
// parameters, mirroring the paper's Fig. 6 where signatures are bucketed
// into known and unknown sets *by application* before any train/test split.
//
// The catalogue is calibrated to the latent-space picture of the paper's
// Fig. 8 (TestDVFSCalibrationGap pins the DVFS half): known DVFS apps hold
// distinct regions of behaviour space (disjoint latent classes), unknown
// DVFS apps sit between and beyond them (out-of-distribution); HPC apps
// deliberately overlap across the benign/malware boundary.
package workload

import (
	"fmt"

	"trusthmd/pkg/dataset"
)

// App identifies one application or malware family.
type App struct {
	// Name is the unique identifier recorded in dataset samples.
	Name string
	// Label is dataset.Benign or dataset.Malware.
	Label int
	// Known marks apps whose signatures may appear in training data; the
	// rest form the unknown (zero-day) bucket.
	Known bool
}

// DVFSBehavior parameterises the CPU-demand process an application drives
// through the SoC power-management governor.
type DVFSBehavior struct {
	App
	// BaseLoad is the mean utilisation demand in [0,1].
	BaseLoad float64
	// PeriodAmp and Period describe a sinusoidal demand component
	// (rendering loops, codec frames, beacon intervals).
	PeriodAmp float64
	Period    int
	// BurstRate is the per-step probability of starting a burst;
	// BurstMag is the burst's additional utilisation; BurstLen its
	// expected duration in steps.
	BurstRate float64
	BurstMag  float64
	BurstLen  int
	// Noise is the standard deviation of white demand noise.
	Noise float64
}

// HPCBehavior parameterises the micro-architectural mixture an application
// exercises. Mix weights address the components of hpc.Components in order
// and must sum to 1.
type HPCBehavior struct {
	App
	// Mix holds the mixture weights over behaviour components.
	Mix []float64
	// Intensity scales overall event counts (instructions retired per
	// sampling window), in multiples of the baseline window.
	Intensity float64
	// Spread is the log-normal sigma of per-sample counter noise; large
	// values blur the app's signature into its neighbours.
	Spread float64
}

// Validate checks the behaviour parameters are inside their domains.
func (b DVFSBehavior) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("workload: unnamed DVFS app")
	}
	if b.Label != dataset.Benign && b.Label != dataset.Malware {
		return fmt.Errorf("workload: %s: bad label %d", b.Name, b.Label)
	}
	if b.BaseLoad < 0 || b.BaseLoad > 1 {
		return fmt.Errorf("workload: %s: base load %v outside [0,1]", b.Name, b.BaseLoad)
	}
	if b.PeriodAmp < 0 || b.PeriodAmp > 1 {
		return fmt.Errorf("workload: %s: period amplitude %v outside [0,1]", b.Name, b.PeriodAmp)
	}
	if b.PeriodAmp > 0 && b.Period < 2 {
		return fmt.Errorf("workload: %s: periodic component needs period >=2, got %d", b.Name, b.Period)
	}
	if b.BurstRate < 0 || b.BurstRate > 1 {
		return fmt.Errorf("workload: %s: burst rate %v outside [0,1]", b.Name, b.BurstRate)
	}
	if b.BurstRate > 0 && b.BurstLen < 1 {
		return fmt.Errorf("workload: %s: bursts need length >=1, got %d", b.Name, b.BurstLen)
	}
	if b.Noise < 0 {
		return fmt.Errorf("workload: %s: negative noise %v", b.Name, b.Noise)
	}
	return nil
}

// Validate checks the mixture is a distribution over nComponents entries.
func (b HPCBehavior) Validate(nComponents int) error {
	if b.Name == "" {
		return fmt.Errorf("workload: unnamed HPC app")
	}
	if b.Label != dataset.Benign && b.Label != dataset.Malware {
		return fmt.Errorf("workload: %s: bad label %d", b.Name, b.Label)
	}
	if len(b.Mix) != nComponents {
		return fmt.Errorf("workload: %s: mix has %d weights, want %d", b.Name, len(b.Mix), nComponents)
	}
	var sum float64
	for i, w := range b.Mix {
		if w < 0 {
			return fmt.Errorf("workload: %s: negative mix weight %v at %d", b.Name, w, i)
		}
		sum += w
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("workload: %s: mix sums to %v, want 1", b.Name, sum)
	}
	if b.Intensity <= 0 {
		return fmt.Errorf("workload: %s: non-positive intensity %v", b.Name, b.Intensity)
	}
	if b.Spread < 0 {
		return fmt.Errorf("workload: %s: negative spread %v", b.Name, b.Spread)
	}
	return nil
}

// DVFSApps returns the DVFS application catalogue.
//
// Known benign apps span light-to-heavy but *structured* demand; known
// malware families have demand shapes characteristic of their behaviour
// (sustained mining, ransomware sweep bursts, low-duty-cycle beaconing).
// Unknown apps are placed in the gaps between the known clusters: loads
// intermediate between the benign and malware groups, or burst/periodic
// structure no known app exhibits. This realises the paper's DVFS finding —
// unknown signatures are out-of-distribution, in sparsely trained regions
// near the extrapolated class boundary.
func DVFSApps() []DVFSBehavior {
	B, M := dataset.Benign, dataset.Malware
	return []DVFSBehavior{
		// --- Known benign (8 apps) ---
		{App: App{"idle_launcher", B, true}, BaseLoad: 0.06, Noise: 0.02},
		{App: App{"music_player", B, true}, BaseLoad: 0.12, PeriodAmp: 0.05, Period: 24, Noise: 0.02},
		{App: App{"ebook_reader", B, true}, BaseLoad: 0.10, BurstRate: 0.01, BurstMag: 0.25, BurstLen: 3, Noise: 0.02},
		{App: App{"messaging", B, true}, BaseLoad: 0.15, BurstRate: 0.03, BurstMag: 0.30, BurstLen: 2, Noise: 0.03},
		{App: App{"web_browser", B, true}, BaseLoad: 0.22, BurstRate: 0.05, BurstMag: 0.30, BurstLen: 4, Noise: 0.04},
		{App: App{"video_stream", B, true}, BaseLoad: 0.30, PeriodAmp: 0.12, Period: 16, Noise: 0.03},
		{App: App{"photo_editor", B, true}, BaseLoad: 0.32, BurstRate: 0.04, BurstMag: 0.28, BurstLen: 4, Noise: 0.04},
		{App: App{"casual_game", B, true}, BaseLoad: 0.36, PeriodAmp: 0.10, Period: 8, BurstRate: 0.02, BurstMag: 0.25, BurstLen: 3, Noise: 0.05},

		// --- Known malware (6 families) ---
		{App: App{"miner_a", M, true}, BaseLoad: 0.92, Noise: 0.03},
		{App: App{"miner_b", M, true}, BaseLoad: 0.85, PeriodAmp: 0.06, Period: 32, Noise: 0.03},
		{App: App{"ransom_sweep", M, true}, BaseLoad: 0.66, BurstRate: 0.10, BurstMag: 0.30, BurstLen: 10, Noise: 0.04},
		{App: App{"spy_beacon", M, true}, BaseLoad: 0.05, PeriodAmp: 0.55, Period: 40, Noise: 0.02},
		{App: App{"adware_loader", M, true}, BaseLoad: 0.74, BurstRate: 0.08, BurstMag: 0.24, BurstLen: 5, Noise: 0.05},
		{App: App{"botnet_relay", M, true}, BaseLoad: 0.08, BurstRate: 0.12, BurstMag: 0.80, BurstLen: 2, Noise: 0.03},

		// --- Unknown (zero-day bucket: 2 benign apps, 2 malware families) ---
		// Parameters sit in the unpopulated band between the benign group
		// (loads <= 0.42) and the malware group (loads >= 0.60), or combine
		// structure no known app has.
		// Each unknown app combines a load level from the inter-class gap
		// with temporal structure borrowed from the *other* class's known
		// signatures, so the feature evidence is genuinely conflicted —
		// linear members' scores hover near zero and tree thresholds
		// scatter across the gap.
		{App: App{"nav_maps", B, false}, BaseLoad: 0.50, PeriodAmp: 0.26, Period: 36, Noise: 0.04},
		{App: App{"ar_camera", B, false}, BaseLoad: 0.51, PeriodAmp: 0.18, Period: 28, BurstRate: 0.03, BurstMag: 0.25, BurstLen: 3, Noise: 0.05},
		{App: App{"cryptojack_v2", M, false}, BaseLoad: 0.46, PeriodAmp: 0.24, Period: 20, Noise: 0.03},
		{App: App{"wiper_new", M, false}, BaseLoad: 0.49, PeriodAmp: 0.22, Period: 14, BurstRate: 0.04, BurstMag: 0.28, BurstLen: 4, Noise: 0.04},
	}
}

// HPCApps returns the HPC application catalogue.
//
// Benign and malware mixtures deliberately share behaviour components with
// wide per-sample spread, so the two classes overlap in counter space —
// the aleatoric-uncertainty regime the paper diagnoses for the HPC dataset
// of Zhou et al. Unknown apps draw mixtures *inside* the overlap region
// (not outside the training support), matching the paper's observation
// that HPC unknowns land in the class-overlap region rather than
// out-of-distribution territory.
//
// Components order: compute, memory, branch, syscall, crypto (see
// hpc.Components).
func HPCApps() []HPCBehavior {
	B, M := dataset.Benign, dataset.Malware
	return []HPCBehavior{
		// --- Known benign (7 apps) ---
		{App: App{"office_suite", B, true}, Mix: []float64{0.30, 0.25, 0.25, 0.15, 0.05}, Intensity: 1.0, Spread: 0.25},
		{App: App{"media_encode", B, true}, Mix: []float64{0.45, 0.30, 0.10, 0.10, 0.05}, Intensity: 1.4, Spread: 0.24},
		{App: App{"db_server", B, true}, Mix: []float64{0.20, 0.40, 0.15, 0.20, 0.05}, Intensity: 1.2, Spread: 0.25},
		{App: App{"compiler", B, true}, Mix: []float64{0.35, 0.30, 0.25, 0.08, 0.02}, Intensity: 1.3, Spread: 0.24},
		{App: App{"web_server", B, true}, Mix: []float64{0.22, 0.28, 0.20, 0.25, 0.05}, Intensity: 1.0, Spread: 0.27},
		{App: App{"file_sync", B, true}, Mix: []float64{0.15, 0.30, 0.15, 0.30, 0.10}, Intensity: 0.9, Spread: 0.25},
		{App: App{"image_viewer", B, true}, Mix: []float64{0.32, 0.33, 0.20, 0.12, 0.03}, Intensity: 0.8, Spread: 0.25},

		// --- Known malware (7 families) — mixtures shifted toward
		// crypto/syscall activity but still overlapping the benign hull,
		// calibrated for ~0.84 known-data accuracy (the figure the paper
		// quotes for the HPC dataset's RF).
		{App: App{"hpc_miner", M, true}, Mix: []float64{0.36, 0.15, 0.04, 0.05, 0.40}, Intensity: 1.3, Spread: 0.25},
		{App: App{"hpc_ransom", M, true}, Mix: []float64{0.07, 0.28, 0.04, 0.32, 0.29}, Intensity: 1.1, Spread: 0.27},
		{App: App{"hpc_keylog", M, true}, Mix: []float64{0.12, 0.15, 0.16, 0.43, 0.14}, Intensity: 0.9, Spread: 0.27},
		{App: App{"hpc_rootkit", M, true}, Mix: []float64{0.14, 0.22, 0.05, 0.41, 0.18}, Intensity: 1.0, Spread: 0.24},
		{App: App{"hpc_worm", M, true}, Mix: []float64{0.18, 0.17, 0.13, 0.31, 0.21}, Intensity: 1.1, Spread: 0.24},
		{App: App{"hpc_trojan", M, true}, Mix: []float64{0.25, 0.14, 0.16, 0.24, 0.21}, Intensity: 1.0, Spread: 0.27},
		{App: App{"hpc_spyware", M, true}, Mix: []float64{0.13, 0.25, 0.08, 0.33, 0.21}, Intensity: 0.95, Spread: 0.27},

		// --- Unknown (2 benign, 3 malware) — inside the overlap region:
		// mixtures intermediate between the class centres, so unknown
		// windows land where the classes collide rather than outside the
		// training support (the paper's HPC observation).
		{App: App{"hpc_newapp_a", B, false}, Mix: []float64{0.24, 0.27, 0.15, 0.21, 0.13}, Intensity: 1.05, Spread: 0.24},
		{App: App{"hpc_newapp_b", B, false}, Mix: []float64{0.25, 0.25, 0.16, 0.21, 0.13}, Intensity: 1.0, Spread: 0.24},
		{App: App{"hpc_zeroday_x", M, false}, Mix: []float64{0.23, 0.27, 0.14, 0.23, 0.13}, Intensity: 1.1, Spread: 0.24},
		{App: App{"hpc_zeroday_y", M, false}, Mix: []float64{0.24, 0.25, 0.16, 0.22, 0.13}, Intensity: 0.95, Spread: 0.27},
		{App: App{"hpc_zeroday_z", M, false}, Mix: []float64{0.22, 0.27, 0.15, 0.22, 0.14}, Intensity: 1.0, Spread: 0.24},
	}
}

// Known filters a slice of apps to the known subset names.
func Known[T any](apps []T, isKnown func(T) bool) []T {
	var out []T
	for _, a := range apps {
		if isKnown(a) {
			out = append(out, a)
		}
	}
	return out
}

// Allocate distributes total samples across parts as evenly as possible
// (largest-remainder): the first (total mod parts) entries get one extra.
// It lets generators hit the paper's exact Table I sample counts.
func Allocate(total, parts int) ([]int, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("workload: allocate over %d parts", parts)
	}
	if total < 0 {
		return nil, fmt.Errorf("workload: allocate negative total %d", total)
	}
	base := total / parts
	rem := total % parts
	out := make([]int, parts)
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out, nil
}
