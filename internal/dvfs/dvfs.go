// Package dvfs simulates the power-management telemetry substrate of the
// paper's first HMD (Chawla et al. [5], [20]): a mobile SoC whose cpufreq
// governor maps instantaneous CPU utilisation demand to one of a small
// number of discrete voltage/frequency states. An application is observed
// as the time series of DVFS states it induces.
//
// The simulator has three layers:
//
//  1. a demand process per application (workload.DVFSBehavior): base load +
//     sinusoidal component + random bursts + white noise;
//  2. an ondemand-style governor with up/down thresholds and hysteresis
//     that converts demand into a state in [0, Levels);
//  3. a sampling layer that records the state sequence, with occasional
//     misreads modelling sampling noise.
//
// This substitutes for real Android DVFS traces, which the paper does not
// publish: the detector consumes only feature vectors extracted from state
// time series, and the catalogue is calibrated so that the latent-space
// geometry matches the paper's observations.
package dvfs

import (
	"fmt"
	"math"
	"math/rand"

	"trusthmd/internal/workload"
)

// Policy selects the governor's scaling strategy.
type Policy int

const (
	// Ondemand jumps straight to the level covering the demand when the
	// up-threshold trips (Linux ondemand semantics; the default).
	Ondemand Policy = iota
	// Conservative steps one level at a time in both directions (Linux
	// conservative semantics) — smoother ladders, laggier response.
	Conservative
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Ondemand:
		return "ondemand"
	case Conservative:
		return "conservative"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config describes the simulated SoC and trace shape.
type Config struct {
	// Policy is the governor scaling strategy (default Ondemand).
	Policy Policy
	// Levels is the number of DVFS states (frequency ladder rungs).
	Levels int
	// Steps is the trace length in governor ticks.
	Steps int
	// UpThreshold: when demand exceeds the fraction of current capacity,
	// the governor jumps straight to the level matching demand (ondemand
	// semantics).
	UpThreshold float64
	// DownThreshold: when demand falls below this fraction of the *next
	// lower* level's capacity, the governor steps one level down.
	DownThreshold float64
	// MisreadProb is the probability a recorded sample is off by one level
	// (sensor/sampling noise).
	MisreadProb float64
	// Jitter is the scale of per-trace behaviour variation: each trace
	// perturbs the application's nominal parameters (base load, burst
	// magnitude, periodic amplitude) by Gaussian factors of this scale,
	// modelling run-to-run variation — different inputs, background tasks
	// and thermal state. Jitter widens each application's cluster in
	// feature space, which is what lets bootstrap replicates disagree near
	// cluster boundaries.
	Jitter float64
}

// DefaultConfig returns the configuration used by the experiments: an
// 8-state ladder sampled for 256 ticks.
func DefaultConfig() Config {
	return Config{
		Levels:        8,
		Steps:         256,
		UpThreshold:   0.80,
		DownThreshold: 0.40,
		MisreadProb:   0.01,
		Jitter:        1.4,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Levels < 2 {
		return fmt.Errorf("dvfs: need >=2 levels, got %d", c.Levels)
	}
	if c.Steps < 2 {
		return fmt.Errorf("dvfs: need >=2 steps, got %d", c.Steps)
	}
	if c.UpThreshold <= 0 || c.UpThreshold > 1 {
		return fmt.Errorf("dvfs: up threshold %v outside (0,1]", c.UpThreshold)
	}
	if c.DownThreshold < 0 || c.DownThreshold >= c.UpThreshold {
		return fmt.Errorf("dvfs: down threshold %v must be in [0, up=%v)", c.DownThreshold, c.UpThreshold)
	}
	if c.MisreadProb < 0 || c.MisreadProb > 0.5 {
		return fmt.Errorf("dvfs: misread probability %v outside [0,0.5]", c.MisreadProb)
	}
	if c.Jitter < 0 || c.Jitter > 5 {
		return fmt.Errorf("dvfs: jitter %v outside [0,5]", c.Jitter)
	}
	return nil
}

// Simulator generates DVFS state traces for application behaviours.
type Simulator struct {
	cfg Config
}

// NewSimulator validates cfg and returns a simulator.
func NewSimulator(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{cfg: cfg}, nil
}

// Config returns the simulator's configuration.
func (s *Simulator) Config() Config { return s.cfg }

// demandProcess tracks the burst state of an application's demand.
type demandProcess struct {
	b         workload.DVFSBehavior
	phase     float64
	burstLeft int
}

// demand returns the utilisation demand in [0,1] at tick t.
func (d *demandProcess) demand(t int, rng *rand.Rand) float64 {
	u := d.b.BaseLoad
	if d.b.PeriodAmp > 0 {
		u += d.b.PeriodAmp * math.Sin(2*math.Pi*float64(t)/float64(d.b.Period)+d.phase)
	}
	if d.burstLeft > 0 {
		u += d.b.BurstMag
		d.burstLeft--
	} else if d.b.BurstRate > 0 && rng.Float64() < d.b.BurstRate {
		// Burst durations are geometric with mean BurstLen.
		d.burstLeft = 1 + rng.Intn(2*d.b.BurstLen-1)
		u += d.b.BurstMag
		d.burstLeft--
	}
	u += rng.NormFloat64() * d.b.Noise
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// Trace simulates one DVFS state time series for the behaviour b.
func (s *Simulator) Trace(b workload.DVFSBehavior, rng *rand.Rand) ([]int, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	b = s.jitter(b, rng)
	d := demandProcess{b: b, phase: rng.Float64() * 2 * math.Pi}
	level := 0
	maxLevel := s.cfg.Levels - 1
	out := make([]int, s.cfg.Steps)
	for t := 0; t < s.cfg.Steps; t++ {
		u := d.demand(t, rng)
		capNow := capacity(level, maxLevel)

		switch {
		case u > s.cfg.UpThreshold*capNow:
			if s.cfg.Policy == Conservative {
				if level < maxLevel {
					level++
				}
			} else {
				// Ondemand: jump straight to the level whose capacity
				// covers the demand.
				level = levelFor(u, maxLevel)
			}
		case level > 0 && u < s.cfg.DownThreshold*capacity(level-1, maxLevel):
			level--
		}

		sampled := level
		if s.cfg.MisreadProb > 0 && rng.Float64() < s.cfg.MisreadProb {
			if rng.Intn(2) == 0 && sampled > 0 {
				sampled--
			} else if sampled < maxLevel {
				sampled++
			}
		}
		out[t] = sampled
	}
	return out, nil
}

// jitter perturbs the behaviour's nominal parameters for one trace.
func (s *Simulator) jitter(b workload.DVFSBehavior, rng *rand.Rand) workload.DVFSBehavior {
	if s.cfg.Jitter == 0 {
		return b
	}
	j := s.cfg.Jitter
	clamp01 := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	b.BaseLoad = clamp01(b.BaseLoad + rng.NormFloat64()*0.045*j)
	if b.PeriodAmp > 0 {
		b.PeriodAmp = clamp01(b.PeriodAmp * (1 + rng.NormFloat64()*0.15*j))
	}
	if b.BurstRate > 0 {
		b.BurstMag = clamp01(b.BurstMag * (1 + rng.NormFloat64()*0.20*j))
		b.BurstRate = clamp01(b.BurstRate * (1 + rng.NormFloat64()*0.25*j))
		if b.BurstRate == 0 {
			b.BurstRate = 0.001
		}
	}
	return b
}

// capacity returns the relative throughput of a level: level 0 runs at
// 1/levels of peak, the top level at 1.0.
func capacity(level, maxLevel int) float64 {
	return float64(level+1) / float64(maxLevel+1)
}

// levelFor returns the lowest level whose capacity covers demand u.
func levelFor(u float64, maxLevel int) int {
	l := int(math.Ceil(u*float64(maxLevel+1))) - 1
	if l < 0 {
		l = 0
	}
	if l > maxLevel {
		l = maxLevel
	}
	return l
}
