// Package feature implements the feature-extraction stage of the HMD
// pipeline (Fig. 1): DVFS state time series and raw HPC counter vectors are
// turned into fixed-length feature vectors consumed by the classifiers.
package feature

import (
	"fmt"
	"math"

	"trusthmd/internal/stats"
)

// DVFSDim returns the dimensionality of DVFSVector's output for a ladder
// with the given number of levels: occupancy histogram (levels) +
// transition shares (3) + level moments (2) + autocorrelations (4).
func DVFSDim(levels int) int { return levels + 9 }

// DVFSVector extracts features from a DVFS state time series (states in
// [0, levels)). The features mirror those used on DVFS signatures in the
// literature: state residency histogram, up/down/stay transition shares,
// mean and standard deviation of the state, and short-lag autocorrelations
// of the state sequence (which capture periodic beaconing and burst
// structure). It is DVFSInto with memory of its own.
func DVFSVector(states []int, levels int) ([]float64, error) {
	return DVFSInto(nil, nil, states, levels)
}

// dvfsLags are the autocorrelation lags DVFSVector reports.
var dvfsLags = [...]int{1, 2, 4, 8}

// DVFSInto is DVFSVector writing into caller-owned memory: the features
// go to dst[:DVFSDim(levels)], which it returns, and dev[:len(states)]
// holds the series' deviations from its mean; either is allocated when its
// capacity falls short, so a caller that keeps both allocates nothing per
// window. dst and dev must not overlap. The deviations are computed once
// and shared by the four lags, and only lags 1, 2, 4 and 8 are computed;
// every product and sum keeps the order of the textbook per-lag formula,
// so the features are the same floats.
func DVFSInto(dst, dev []float64, states []int, levels int) ([]float64, error) {
	if levels < 2 {
		return nil, fmt.Errorf("feature: need >=2 levels, got %d", levels)
	}
	n := len(states)
	if n < 2 {
		return nil, fmt.Errorf("feature: need >=2 samples, got %d", n)
	}
	if dim := DVFSDim(levels); cap(dst) >= dim {
		dst = dst[:dim]
	} else {
		dst = make([]float64, dim)
	}
	if cap(dev) >= n {
		dev = dev[:n]
	} else {
		dev = make([]float64, n)
	}

	// State residency histogram.
	hist := dst[:levels]
	clear(hist)
	for i, s := range states {
		if s < 0 || s >= levels {
			return nil, fmt.Errorf("feature: state %d at sample %d outside [0,%d)", s, i, levels)
		}
		hist[s]++
	}
	inv := 1 / float64(n)
	for i := range hist {
		hist[i] *= inv
	}

	// Transition shares: up, down, stay.
	var up, down, stay float64
	for i := 1; i < n; i++ {
		switch {
		case states[i] > states[i-1]:
			up++
		case states[i] < states[i-1]:
			down++
		default:
			stay++
		}
	}
	tInv := 1 / float64(n-1)
	dst[levels], dst[levels+1], dst[levels+2] = up*tInv, down*tInv, stay*tInv

	// Level moments.
	var m stats.Moments
	var mean float64
	for _, s := range states {
		m.Add(float64(s))
		mean += float64(s)
	}
	dst[levels+3], dst[levels+4] = m.Mean()/float64(levels-1), m.Std()/float64(levels-1)

	// Short-lag autocorrelations capture periodic structure: for lag k,
	// sum_i dev[i]*dev[i+k] over sum_i dev[i]^2, and 0 when the series is
	// constant or shorter than k+1.
	mean /= float64(n)
	var denom float64
	for i, s := range states {
		d := float64(s) - mean
		dev[i] = d
		denom += d * d
	}
	ac := dst[levels+5:]
	for j, lag := range dvfsLags {
		ac[j] = 0
		if lag >= n || denom == 0 {
			continue
		}
		var num float64
		for i := 0; i+lag < n; i++ {
			num += dev[i] * dev[i+lag]
		}
		ac[j] = num / denom
	}
	return dst, nil
}

// HPCDim is the dimensionality of HPCVector's output: log-scaled event
// counts plus four derived rate features.
func HPCDim(events int) int { return events + 4 }

// HPCVector extracts features from one window of raw HPC counter values:
// log1p of each counter (counts are heavy-tailed) plus derived
// micro-architectural rates — branch-miss rate, cache-miss rate, IPC proxy
// and syscall intensity — which the HPC-HMD literature reports as the most
// informative inputs. The expected event order is that of hpc.EventNames.
func HPCVector(counters []float64) ([]float64, error) {
	const minEvents = 8
	if len(counters) < minEvents {
		return nil, fmt.Errorf("feature: need >=%d counters, got %d", minEvents, len(counters))
	}
	out := make([]float64, 0, HPCDim(len(counters)))
	for i, c := range counters {
		if c < 0 || math.IsNaN(c) {
			return nil, fmt.Errorf("feature: counter %d is %v", i, c)
		}
		out = append(out, math.Log1p(c))
	}
	// Derived rates; indices follow hpc.EventNames:
	// 0 cycles, 1 instructions, 2 branches, 3 branch-misses,
	// 4 cache-refs, 5 cache-misses, 6 llc-loads, 7 syscalls, ...
	ratio := func(num, den float64) float64 {
		if den <= 0 {
			return 0
		}
		return num / den
	}
	out = append(out,
		ratio(counters[3], counters[2]), // branch miss rate
		ratio(counters[5], counters[4]), // cache miss rate
		ratio(counters[1], counters[0]), // IPC proxy
		ratio(counters[7], counters[1]), // syscalls per instruction
	)
	return out, nil
}
