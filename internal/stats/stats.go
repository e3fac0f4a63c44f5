// Package stats supplies the statistical primitives used by trusthmd: Shannon
// entropy, histograms, quantiles and box-plot summaries, running moments,
// silhouette scores, and autocorrelation. All entropies are reported in bits
// (log base 2) so that binary vote entropy lies in [0, 1], matching the
// threshold axes of the paper's Figs. 7 and 9.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty reports an operation on an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Entropy returns the Shannon entropy, in bits, of the probability
// distribution p. Entries must be non-negative; zero entries contribute
// nothing. The distribution need not be exactly normalised — it is
// renormalised internally — but an all-zero distribution is an error.
func Entropy(p []float64) (float64, error) {
	var total float64
	for i, v := range p {
		if v < 0 || math.IsNaN(v) {
			return 0, fmt.Errorf("stats: entropy: p[%d]=%v is not a valid probability mass", i, v)
		}
		total += v
	}
	if total == 0 {
		return 0, fmt.Errorf("stats: entropy: distribution sums to zero: %w", ErrEmpty)
	}
	var h float64
	for _, v := range p {
		if v == 0 {
			continue
		}
		q := v / total
		h -= q * math.Log2(q)
	}
	if h < 0 { // guard tiny negative round-off
		h = 0
	}
	return h, nil
}

// CountEntropy returns the Shannon entropy, in bits, of a frequency
// distribution given as integer counts (e.g. ensemble votes per class).
func CountEntropy(counts []int) (float64, error) {
	// Allocation-free unrolling of Entropy over float64(counts): the same
	// total/term accumulation order, so the result is bit-identical, and
	// the assessment hot path can call it per sample without garbage.
	var total float64
	for i, c := range counts {
		if c < 0 {
			return 0, fmt.Errorf("stats: count entropy: negative count %d at %d", c, i)
		}
		total += float64(c)
	}
	if total == 0 {
		return 0, fmt.Errorf("stats: entropy: distribution sums to zero: %w", ErrEmpty)
	}
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		q := float64(c) / total
		h -= q * math.Log2(q)
	}
	if h < 0 { // guard tiny negative round-off
		h = 0
	}
	return h, nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (the same scheme as numpy's
// default). xs is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v outside [0,1]", q)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// FiveNumber is a box-plot summary: minimum, lower quartile, median, upper
// quartile and maximum, plus the mean and count for convenience.
type FiveNumber struct {
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
	N                        int
}

// Summarize computes the five-number summary of xs.
func Summarize(xs []float64) (FiveNumber, error) {
	if len(xs) == 0 {
		return FiveNumber{}, ErrEmpty
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		v, _ := Quantile(s, p)
		return v
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return FiveNumber{
		Min:    s[0],
		Q1:     q(0.25),
		Median: q(0.5),
		Q3:     q(0.75),
		Max:    s[len(s)-1],
		Mean:   sum / float64(len(s)),
		N:      len(s),
	}, nil
}

// String renders the summary in a compact fixed layout used by the
// experiment harness.
func (f FiveNumber) String() string {
	return fmt.Sprintf("n=%d min=%.3f q1=%.3f med=%.3f q3=%.3f max=%.3f mean=%.3f",
		f.N, f.Min, f.Q1, f.Median, f.Q3, f.Max, f.Mean)
}

// Moments accumulates running mean and variance via Welford's algorithm.
// The zero value is ready to use.
type Moments struct {
	n    int
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (m *Moments) Add(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// N returns the number of samples folded in.
func (m *Moments) N() int { return m.n }

// Mean returns the running mean (0 before any samples).
func (m *Moments) Mean() float64 { return m.mean }

// Variance returns the sample variance (denominator n-1), or 0 with fewer
// than two samples.
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// Std returns the sample standard deviation.
func (m *Moments) Std() float64 { return math.Sqrt(m.Variance()) }
