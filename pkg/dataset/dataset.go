// Package dataset holds labelled feature matrices together with the
// application each sample was derived from, and implements the known/unknown
// bucketing of the paper's Fig. 6: samples are first partitioned by
// application into a known and an unknown bucket; the known bucket is then
// split into train and test sets, while the unknown bucket is reserved for
// out-of-distribution evaluation.
package dataset

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"trusthmd/pkg/linalg"
)

// Class labels used across trusthmd.
const (
	Benign  = 0
	Malware = 1
)

// NumClasses is the number of classification classes (benign vs malware).
const NumClasses = 2

// ErrEmpty reports an operation on an empty dataset.
var ErrEmpty = errors.New("dataset: empty")

// Sample is one labelled observation: a feature vector, its class, and the
// application (or malware family) that produced it.
type Sample struct {
	Features []float64
	Label    int
	App      string
}

// Dataset is a collection of samples with uniform feature dimensionality.
type Dataset struct {
	samples []Sample
	dim     int
}

// New returns an empty dataset expecting feature vectors of length dim.
func New(dim int) *Dataset {
	if dim <= 0 {
		panic(fmt.Sprintf("dataset: non-positive dim %d", dim))
	}
	return &Dataset{dim: dim}
}

// Dim returns the feature dimensionality.
func (d *Dataset) Dim() int { return d.dim }

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.samples) }

// Add appends a sample. The feature length must match the dataset
// dimensionality and the label must be a known class.
func (d *Dataset) Add(s Sample) error {
	if len(s.Features) != d.dim {
		return fmt.Errorf("dataset: sample has %d features, want %d", len(s.Features), d.dim)
	}
	if s.Label != Benign && s.Label != Malware {
		return fmt.Errorf("dataset: unknown label %d", s.Label)
	}
	d.samples = append(d.samples, s)
	return nil
}

// At returns the i-th sample. The returned features share storage with the
// dataset; callers must not mutate them.
func (d *Dataset) At(i int) Sample { return d.samples[i] }

// X returns the feature matrix (copying the features). An empty dataset
// yields a 0 x dim matrix.
func (d *Dataset) X() *linalg.Matrix {
	m := linalg.New(len(d.samples), d.dim)
	for i, s := range d.samples {
		copy(m.Row(i), s.Features)
	}
	return m
}

// Y returns the label vector.
func (d *Dataset) Y() []int {
	y := make([]int, len(d.samples))
	for i, s := range d.samples {
		y[i] = s.Label
	}
	return y
}

// Apps returns the sorted set of distinct applications present.
func (d *Dataset) Apps() []string {
	set := map[string]bool{}
	for _, s := range d.samples {
		set[s.App] = true
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// ClassCounts returns the number of benign and malware samples.
func (d *Dataset) ClassCounts() (benign, malware int) {
	for _, s := range d.samples {
		if s.Label == Benign {
			benign++
		} else {
			malware++
		}
	}
	return benign, malware
}

// Subset returns a new dataset containing the samples at the given indices
// (shared feature storage).
func (d *Dataset) Subset(idx []int) *Dataset {
	out := New(d.dim)
	out.samples = make([]Sample, 0, len(idx))
	for _, i := range idx {
		out.samples = append(out.samples, d.samples[i])
	}
	return out
}

// Shuffle permutes the samples in place using rng.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	rng.Shuffle(len(d.samples), func(i, j int) {
		d.samples[i], d.samples[j] = d.samples[j], d.samples[i]
	})
}

// Merge returns a new dataset containing the samples of d followed by those
// of other. Dimensionalities must match.
func (d *Dataset) Merge(other *Dataset) (*Dataset, error) {
	if d.dim != other.dim {
		return nil, fmt.Errorf("dataset: merge dim %d with %d", d.dim, other.dim)
	}
	out := New(d.dim)
	out.samples = append(append([]Sample{}, d.samples...), other.samples...)
	return out, nil
}

// TakeN returns a dataset with exactly n samples drawn without replacement
// under rng, or an error if fewer are available.
func (d *Dataset) TakeN(n int, rng *rand.Rand) (*Dataset, error) {
	if n > d.Len() {
		return nil, fmt.Errorf("dataset: want %d samples, have %d", n, d.Len())
	}
	idx := rng.Perm(d.Len())[:n]
	sort.Ints(idx)
	return d.Subset(idx), nil
}
