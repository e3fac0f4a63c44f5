package bayes

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func encodeGaussianGob(tb testing.TB, w gaussianGob) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// twoClassGob is a well-formed two-class, two-feature model; the hostile
// shapes below are edits of it.
func twoClassGob() gaussianGob {
	return gaussianGob{
		Classes: 2,
		Prior:   []float64{math.Log(0.5), math.Log(0.5)},
		Mean:    [][]float64{{-1, 0}, {1, 0}},
		Vari:    [][]float64{{1, 1}, {1, 1}},
	}
}

func hostileGaussianGobs() []struct {
	name string
	g    gaussianGob
} {
	shortPrior := twoClassGob()
	shortPrior.Prior = shortPrior.Prior[:1]
	noClasses := gaussianGob{}
	shortMean := twoClassGob()
	shortMean.Mean = shortMean.Mean[:1]
	shortVari := twoClassGob()
	shortVari.Vari = shortVari.Vari[:1]
	raggedMean := twoClassGob()
	raggedMean.Mean = [][]float64{{-1, 0}, {1}}
	raggedVari := twoClassGob()
	raggedVari.Vari = [][]float64{{1, 1}, {1, 1, 1}}
	return []struct {
		name string
		g    gaussianGob
	}{
		{"prior shorter than classes", shortPrior},
		{"no classes", noClasses},
		{"mean rows shorter than classes", shortMean},
		{"variance rows shorter than classes", shortVari},
		{"ragged mean row", raggedMean},
		{"ragged variance row", raggedVari},
	}
}

// TestGobDecodeRejects: a gob whose shapes disagree is refused at decode,
// where it used to decode cleanly, report a plausible NumFeatures and
// panic on the first Predict (Classes 2 with one prior: index out of
// range [1] with length 1).
func TestGobDecodeRejects(t *testing.T) {
	var back Gaussian
	if err := back.GobDecode(encodeGaussianGob(t, twoClassGob())); err != nil {
		t.Fatalf("the well-formed model the hostile shapes are edits of: %v", err)
	}
	if got := back.Predict([]float64{2, 0}); got != 1 {
		t.Fatalf("well-formed model predicts %d at (2, 0), want 1", got)
	}
	for _, c := range hostileGaussianGobs() {
		t.Run(c.name, func(t *testing.T) {
			err := new(Gaussian).GobDecode(encodeGaussianGob(t, c.g))
			if err == nil {
				t.Fatal("decoded without error")
			}
			if !strings.Contains(err.Error(), "corrupt gob") {
				t.Fatalf("error %q does not say the gob is corrupt", err)
			}
		})
	}
}

// FuzzMemberGobDecode: whatever the bytes, GobDecode returns an error or
// a model that predicts on a NumFeatures()-wide row without a fault.
func FuzzMemberGobDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	X, y := blobs(rng, 60, 2)
	g := New(Config{})
	if err := g.Fit(X, y); err != nil {
		f.Fatal(err)
	}
	b, err := g.GobEncode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add(encodeGaussianGob(f, twoClassGob()))
	for _, c := range hostileGaussianGobs() {
		f.Add(encodeGaussianGob(f, c.g))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var g Gaussian
		if err := g.GobDecode(b); err != nil {
			return
		}
		if g.NumFeatures() > 1<<12 {
			t.Skip("rows too wide to build here")
		}
		x := make([]float64, g.NumFeatures())
		fill := rand.New(rand.NewSource(int64(len(b))))
		for i := range x {
			x[i] = fill.NormFloat64()
		}
		g.Predict(x)
		g.PredictProba(x)
	})
}
