package detector

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// v2Expectation mirrors the fixture JSON frozen alongside the blobs: the
// assessments the saving binary produced at freeze time.
type v2Expectation struct {
	Model    string      `json:"model"`
	Inputs   [][]float64 `json:"inputs"`
	Preds    []int       `json:"preds"`
	Entropy  []float64   `json:"entropy"`
	Decision []int       `json:"decision"`
	Members  int         `json:"members"`
	InputDim int         `json:"input_dim"`
}

// TestLoadFrozenV2Blobs is the wire-compatibility contract of the exported
// classifier boundary: the serialVersion-2 blobs in testdata were written
// by the pre-refactor build (when the classifier contract and matrix type
// still lived in internal packages), and they must keep loading — with
// bit-identical assessments — for as long as serialVersion 2 is supported.
// The fixtures cover the three wire shapes: tree members (rf), a
// matrix-carrying member plus a PCA stage (knn), and weight-vector members
// with per-member feature subspaces (lr).
//
// If this test fails after a refactor, a gob-visible name changed (a
// registered concrete member type moved packages, or a GobEncoder payload
// changed shape). That breaks every model file in every deployment: fix the
// refactor, do not regenerate the fixtures.
func TestLoadFrozenV2Blobs(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "detector_v2_expect.json"))
	if err != nil {
		t.Fatal(err)
	}
	var expects []v2Expectation
	if err := json.Unmarshal(raw, &expects); err != nil {
		t.Fatal(err)
	}
	if len(expects) == 0 {
		t.Fatal("no frozen expectations")
	}
	for _, e := range expects {
		t.Run(e.Model, func(t *testing.T) {
			f, err := os.Open(filepath.Join("testdata", "detector_v2_"+e.Model+".gob"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			d, err := Load(f)
			if err != nil {
				t.Fatalf("frozen v2 blob no longer loads: %v", err)
			}
			if d.Model() != e.Model {
				t.Fatalf("loaded model %q, frozen as %q", d.Model(), e.Model)
			}
			if d.Members() != e.Members || d.InputDim() != e.InputDim {
				t.Fatalf("loaded %d members/%d features, frozen %d/%d",
					d.Members(), d.InputDim(), e.Members, e.InputDim)
			}
			for i, x := range e.Inputs {
				r, err := d.Assess(x)
				if err != nil {
					t.Fatalf("input %d: %v", i, err)
				}
				if r.Prediction != e.Preds[i] {
					t.Fatalf("input %d: prediction %d, frozen %d", i, r.Prediction, e.Preds[i])
				}
				if math.Abs(r.Entropy-e.Entropy[i]) > 1e-12 {
					t.Fatalf("input %d: entropy %v, frozen %v", i, r.Entropy, e.Entropy[i])
				}
				if int(r.Decision) != e.Decision[i] {
					t.Fatalf("input %d: decision %d, frozen %d", i, int(r.Decision), e.Decision[i])
				}
			}
		})
	}
}

// TestResaveFrozenV2RF pins what Save writes for the frozen rf blob after
// Load: the trees decoded from the pre-refactor bytes, encoded again. The
// hash is of the re-save, not of the file: the file names its member
// slice's gob type []ensemble.Classifier and the re-save []model.Classifier,
// three bytes shorter. It holds decode → encode on trees no current Fit
// produced.
func TestResaveFrozenV2RF(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "detector_v2_rf.gob"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got, want := hex.EncodeToString(sum[:]), "975e9bf8ee0d3b4f5af2ebd1a000a46b0b8c3ff1996d2066065f135771c48c85"; got != want {
		t.Fatalf("re-saving the frozen rf blob wrote %d bytes hashing to %s, pinned %s", buf.Len(), got, want)
	}
}
