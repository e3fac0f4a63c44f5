package detector_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"trusthmd/internal/gen"
	"trusthmd/pkg/detector"
	_ "trusthmd/pkg/model/gbm" // registers the gbm family, so its gobs decode
)

// FuzzLoad feeds Load the bytes POST /v1/models hands it: whatever they
// are, Load returns an error or a detector that assesses an
// InputDim()-wide row without a fault, with and without the
// aleatoric/epistemic split (the member-posterior walk). The seeds are one
// saved detector per registered family — one with PCA and per-member
// feature subsets, so the scaler, PCA, ensemble and every member gob are
// reached, and one saved WithDecomposition(true) — plus the frozen
// format-2 blobs under testdata.
func FuzzLoad(f *testing.F) {
	splits, err := gen.DVFSWithSizes(3, gen.Sizes{Train: 120, Test: 10, Unknown: 10})
	if err != nil {
		f.Fatal(err)
	}
	for i, family := range detector.Models() {
		opts := []detector.Option{detector.WithModel(family), detector.WithEnsembleSize(3), detector.WithSeed(1)}
		switch i {
		case 0:
			opts = append(opts, detector.WithPCA(4), detector.WithMaxFeatures(0.5))
		case 1:
			opts = append(opts, detector.WithDecomposition(true))
		}
		d, err := detector.New(splits.Train, opts...)
		if err != nil {
			f.Fatalf("%s: %v", family, err)
		}
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			f.Fatalf("%s: %v", family, err)
		}
		f.Add(buf.Bytes())
	}
	blobs, err := filepath.Glob(filepath.Join("testdata", "detector_v2_*.gob"))
	if err != nil || len(blobs) != 3 {
		f.Fatalf("frozen blobs %v: %v", blobs, err)
	}
	for _, path := range blobs {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := detector.Load(bytes.NewReader(b))
		if err != nil {
			return
		}
		if d.InputDim() > 1<<12 {
			t.Skip("rows too wide to build here")
		}
		x := make([]float64, d.InputDim())
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		d.Assess(x)
		if dd, err := d.WithOptions(detector.WithDecomposition(true)); err == nil {
			dd.Assess(x)
		}
	})
}
