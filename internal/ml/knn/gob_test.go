package knn

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"strings"
	"testing"

	"trusthmd/pkg/linalg"
)

func encodeKNNGob(tb testing.TB, w knnGob) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// threeRowGob is a well-formed 1-NN model over three one-feature rows;
// the hostile shapes below are edits of it.
func threeRowGob() knnGob {
	return knnGob{
		Cfg:     Config{K: 1},
		X:       linalg.MustFromRows([][]float64{{0}, {1}, {2}}),
		Y:       []int{0, 1, 1},
		Classes: 2,
	}
}

func hostileKNNGobs() []struct {
	name string
	g    knnGob
} {
	shortY := threeRowGob()
	shortY.Y = shortY.Y[:1]
	noRows := threeRowGob()
	noRows.X, noRows.Y = nil, nil
	labelTooBig := threeRowGob()
	labelTooBig.Y = []int{0, 1, 2}
	labelNegative := threeRowGob()
	labelNegative.Y = []int{0, -1, 1}
	tooManyClasses := threeRowGob()
	tooManyClasses.Classes = 1 << 40
	zeroK := threeRowGob()
	zeroK.Cfg.K = 0
	return []struct {
		name string
		g    knnGob
	}{
		{"fewer labels than rows", shortY},
		{"no training rows", noRows},
		{"label past classes", labelTooBig},
		{"negative label", labelNegative},
		{"classes the labels do not imply", tooManyClasses},
		{"K of zero", zeroK},
	}
}

// TestGobDecodeRejects: a gob Fit could not have produced is refused at
// decode, where it used to decode cleanly, report a plausible NumFeatures
// and panic on the first Predict (3 rows with one label: index out of
// range [1] with length 1).
func TestGobDecodeRejects(t *testing.T) {
	var back KNN
	if err := back.GobDecode(encodeKNNGob(t, threeRowGob())); err != nil {
		t.Fatalf("the well-formed model the hostile shapes are edits of: %v", err)
	}
	if got := back.Predict([]float64{1.9}); got != 1 {
		t.Fatalf("well-formed model predicts %d at 1.9, want 1", got)
	}
	for _, c := range hostileKNNGobs() {
		t.Run(c.name, func(t *testing.T) {
			err := new(KNN).GobDecode(encodeKNNGob(t, c.g))
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
	X, y := blobs(rng, 30, 2)
	k := New(Config{K: 3})
	if err := k.Fit(X, y); err != nil {
		f.Fatal(err)
	}
	b, err := k.GobEncode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add(encodeKNNGob(f, threeRowGob()))
	for _, c := range hostileKNNGobs() {
		f.Add(encodeKNNGob(f, c.g))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var k KNN
		if err := k.GobDecode(b); err != nil {
			return
		}
		if k.NumFeatures() > 1<<12 {
			t.Skip("rows too wide to build here")
		}
		x := make([]float64, k.NumFeatures())
		fill := rand.New(rand.NewSource(int64(len(b))))
		for i := range x {
			x[i] = fill.NormFloat64()
		}
		k.Predict(x)
		k.PredictProba(x)
	})
}
