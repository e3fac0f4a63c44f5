package main

import (
	"math"
	"sort"
)

// percentileLadder is the set of percentiles the benchmark ever reports,
// each with the share of samples that lies beyond it, as one in beyond.
var percentileLadder = []struct {
	p      float64
	beyond int
}{{0.50, 2}, {0.90, 10}, {0.99, 100}, {0.999, 1000}, {0.9999, 10000}}

// minBeyond is the number of samples that must lie beyond a percentile
// before the benchmark reports it: with fewer, the figure is one or two
// outliers, not a property of the system.
const minBeyond = 10

// highestPercentile returns the highest ladder percentile that n samples
// support, i.e. the highest p with at least minBeyond samples beyond it,
// or 0 when not even the median qualifies.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, l := range percentileLadder {
		if n >= minBeyond*l.beyond {
			best = l.p
		}
	}
	return best
}

// supported caps p at the highest percentile n samples support.
func supported(p float64, n int) float64 {
	if hi := highestPercentile(n); p > hi {
		return hi
	}
	return p
}

// percentile is the nearest-rank percentile of an ascending slice; 0 for
// an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted))-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median sorts a copy of vs and returns its middle value (mean of the two
// middle values for an even count); 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
