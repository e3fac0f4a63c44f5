// Package hpc simulates the hardware-performance-counter telemetry
// substrate of the paper's second HMD (Zhou et al. [21], [22]): per
// sampling window, a vector of micro-architectural event counts observed
// while a workload runs.
//
// Each application is a mixture over five behaviour components (compute-,
// memory-, branch-, syscall- and crypto-bound); a window's counters are
// log-normal draws around the mixture's event profile. The catalogue in
// package workload gives benign and malware applications heavily
// overlapping mixtures, reproducing the class overlap that the paper
// diagnoses as the HPC dataset's fundamental limitation.
package hpc

import (
	"math"
	"math/rand"

	"trusthmd/internal/workload"
)

// EventNames lists the 16 simulated HPC events, in the order counters are
// emitted. The first eight positions are relied upon by feature.HPCVector's
// derived rates.
var EventNames = []string{
	"cpu-cycles",
	"instructions",
	"branches",
	"branch-misses",
	"cache-references",
	"cache-misses",
	"llc-loads",
	"syscalls",
	"llc-stores",
	"dtlb-misses",
	"itlb-misses",
	"page-faults",
	"context-switches",
	"stalled-cycles",
	"bus-cycles",
	"prefetches",
}

// NumEvents is the number of simulated counters per window.
const NumEvents = 16

// Component is one micro-architectural behaviour archetype: a profile of
// mean log event counts for a baseline-intensity window.
type Component struct {
	Name    string
	LogMean [NumEvents]float64
}

// Components returns the five behaviour archetypes addressed by
// workload.HPCBehavior.Mix, in order: compute, memory, branch, syscall,
// crypto.
func Components() []Component {
	// Log-space means (natural log of counts per window). Baseline window
	// retires ~1e7 instructions; profiles shift relative event intensities
	// in the way the archetype suggests (e.g. memory-bound: more cache
	// misses, more stalls, lower IPC).
	ln := math.Log
	return []Component{
		{
			Name: "compute",
			LogMean: [NumEvents]float64{
				ln(1.2e7), ln(1.5e7), ln(2.0e6), ln(4.0e4),
				ln(5.0e5), ln(2.0e4), ln(1.0e4), ln(2.0e3),
				ln(8.0e3), ln(5.0e3), ln(2.0e3), ln(1.0e2),
				ln(5.0e1), ln(1.5e6), ln(2.4e6), ln(3.0e5),
			},
		},
		{
			Name: "memory",
			LogMean: [NumEvents]float64{
				ln(1.4e7), ln(8.0e6), ln(9.0e5), ln(3.0e4),
				ln(2.5e6), ln(6.0e5), ln(4.0e5), ln(3.0e3),
				ln(2.0e5), ln(8.0e4), ln(6.0e3), ln(8.0e2),
				ln(1.0e2), ln(6.0e6), ln(2.8e6), ln(9.0e5),
			},
		},
		{
			Name: "branch",
			LogMean: [NumEvents]float64{
				ln(1.1e7), ln(1.1e7), ln(3.5e6), ln(3.0e5),
				ln(8.0e5), ln(6.0e4), ln(3.0e4), ln(4.0e3),
				ln(2.0e4), ln(1.0e4), ln(8.0e3), ln(2.0e2),
				ln(8.0e1), ln(2.5e6), ln(2.2e6), ln(2.0e5),
			},
		},
		{
			Name: "syscall",
			LogMean: [NumEvents]float64{
				ln(9.0e6), ln(6.0e6), ln(1.2e6), ln(8.0e4),
				ln(1.2e6), ln(1.5e5), ln(9.0e4), ln(5.0e4),
				ln(6.0e4), ln(3.0e4), ln(2.0e4), ln(3.0e3),
				ln(1.2e3), ln(3.5e6), ln(1.8e6), ln(3.0e5),
			},
		},
		{
			Name: "crypto",
			LogMean: [NumEvents]float64{
				ln(1.3e7), ln(1.6e7), ln(9.0e5), ln(1.5e4),
				ln(9.0e5), ln(1.0e5), ln(6.0e4), ln(1.5e3),
				ln(4.0e4), ln(1.5e4), ln(2.5e3), ln(1.2e2),
				ln(4.0e1), ln(2.0e6), ln(2.6e6), ln(6.0e5),
			},
		},
	}
}

// Generator draws counter windows for application behaviours.
type Generator struct {
	comps []Component
}

// NewGenerator returns a generator over the standard components.
func NewGenerator() *Generator {
	return &Generator{comps: Components()}
}

// Window draws one counter window for behaviour b: per event, the mixture
// of component log-means, shifted by log(Intensity), plus N(0, Spread)
// log-normal noise.
func (g *Generator) Window(b workload.HPCBehavior, rng *rand.Rand) ([]float64, error) {
	if err := b.Validate(len(g.comps)); err != nil {
		return nil, err
	}
	out := make([]float64, NumEvents)
	shift := math.Log(b.Intensity)
	for e := 0; e < NumEvents; e++ {
		var lm float64
		for c, w := range b.Mix {
			lm += w * g.comps[c].LogMean[e]
		}
		lm += shift + rng.NormFloat64()*b.Spread
		out[e] = math.Exp(lm)
	}
	return out, nil
}
