package detector

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trusthmd/internal/ensemble"
	"trusthmd/internal/hmd"
	"trusthmd/pkg/model"
)

// TestSaveLoadRoundTrip trains each built-in family that converges on the
// DVFS data, serializes it, loads it back and requires identical decisions
// on the whole test split — the train-once-serve-many contract.
func TestSaveLoadRoundTrip(t *testing.T) {
	s := dvfsSplits(t)
	cases := map[string][]Option{
		"rf":      {WithModel("rf"), WithPCA(6)},
		"lr":      {WithModel("lr"), WithMaxFeatures(0.45)},
		"svm":     {WithModel("svm"), WithSVMMaxObjective(0.3)},
		"nb":      {WithModel("nb"), WithMaxFeatures(0.45)},
		"knn":     {WithModel("knn"), WithMaxFeatures(0.45)},
		"rf-deco": {WithModel("rf"), WithTreeLimits(0, 10), WithDecomposition(true)},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			d, err := New(s.Train, append([]Option{WithEnsembleSize(7), WithSeed(6), WithThreshold(0.35)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := d.Save(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if back.Model() != d.Model() || back.Threshold() != d.Threshold() || back.Members() != d.Members() {
				t.Fatalf("metadata lost: %s/%v/%d vs %s/%v/%d",
					back.Model(), back.Threshold(), back.Members(),
					d.Model(), d.Threshold(), d.Members())
			}
			want, err := d.AssessDataset(s.Test)
			if err != nil {
				t.Fatal(err)
			}
			got, err := back.AssessDataset(s.Test)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if want[i].Prediction != got[i].Prediction ||
					want[i].Entropy != got[i].Entropy ||
					want[i].Decision != got[i].Decision {
					t.Fatalf("sample %d: loaded detector diverged: %+v vs %+v", i, got[i], want[i])
				}
				if want[i].Decomposition != nil &&
					(got[i].Decomposition == nil || *got[i].Decomposition != *want[i].Decomposition) {
					t.Fatalf("sample %d: decomposition lost in round trip", i)
				}
			}
		})
	}
}

// TestRoundTripPreservesConfig requires Save→Load→Save to carry the full
// training-time configuration: before version 2 a loaded detector's PCA,
// seed and subsample fractions silently reverted to defaults, so a second
// Save (or WithOptions) misreported the pipeline.
func TestRoundTripPreservesConfig(t *testing.T) {
	s := dvfsSplits(t)
	d, err := New(s.Train,
		WithModel("rf"), WithEnsembleSize(7), WithSeed(42), WithPCA(6),
		WithMaxSamples(0.8), WithMaxFeatures(0.5), WithThreshold(0.33), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.Info(), d.Info(); got != want {
		t.Fatalf("config lost in round trip:\n got %+v\nwant %+v", got, want)
	}
	// A second round trip must be a fixed point.
	var buf2 bytes.Buffer
	if err := back.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	again, err := Load(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := again.Info(), d.Info(); got != want {
		t.Fatalf("config drifted on second round trip:\n got %+v\nwant %+v", got, want)
	}
	// WithOptions on a loaded detector must keep reporting the trained
	// pipeline, not defaults.
	tuned, err := back.WithOptions(WithThreshold(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if info := tuned.Info(); info.PCA != 6 || info.Seed != 42 || info.MaxSamples != 0.8 || info.MaxFeatures != 0.5 {
		t.Fatalf("WithOptions on loaded detector misreports training config: %+v", info)
	}
}

// savedDetectorV1 is the version-1 wire struct, frozen here so the
// back-compat path keeps being exercised after the format moves on.
type savedDetectorV1 struct {
	Version   int
	Model     string
	Threshold float64
	Workers   int
	Decompose bool
	Diversity ensemble.Diversity
	Params    Params
	Pipeline  *hmd.Pipeline
}

// TestLoadVersion1 writes a version-1 stream (no training-time config
// fields) and requires Load to accept it with identical decisions.
func TestLoadVersion1(t *testing.T) {
	d, s := trainRF(t, WithPCA(6))
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(savedDetectorV1{
		Version:   1,
		Model:     d.Model(),
		Threshold: d.Threshold(),
		Diversity: d.cfg.diversity,
		Params:    d.cfg.params,
		Pipeline:  d.pipe,
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("version-1 blob no longer loads: %v", err)
	}
	if back.Model() != d.Model() || back.Threshold() != d.Threshold() || back.Members() != d.Members() {
		t.Fatalf("version-1 metadata lost: %+v", back.Info())
	}
	// Version 1 never carried the training-time config; the loaded Info
	// reports defaults for those fields, but inference is identical.
	if back.Info().PCA != 0 {
		t.Fatalf("version-1 load invented a PCA config: %+v", back.Info())
	}
	want, err := d.AssessDataset(s.Test)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.AssessDataset(s.Test)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i].Prediction != got[i].Prediction || want[i].Entropy != got[i].Entropy {
			t.Fatalf("sample %d: version-1 detector diverged", i)
		}
	}
}

func TestLoadRejectsFutureVersion(t *testing.T) {
	d, _ := trainRF(t)
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(savedDetector{
		Version:  serialVersion + 1,
		Model:    d.Model(),
		Pipeline: d.pipe,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("expected unsupported-version error")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a detector"))); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestSavedDetectorIsRetrainable(t *testing.T) {
	// A loaded detector carries its model name, so the registry can train
	// successors (the forensic feedback loop keeps working after a restart).
	d, s := trainRF(t)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRetrainer(s.Train, 1, WithModel(back.Model()), WithEnsembleSize(5), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	smp := s.Unknown.At(0)
	if err := r.ReportForensics([]Forensic{{Features: smp.Features, Label: smp.Label, App: smp.App}}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Retrain(); err != nil {
		t.Fatal(err)
	}
}

// TestSaveFileAtomic pins the crash-safety contract: SaveFile never
// leaves a torn model at the destination path, leaves no temp debris
// behind, and atomically replaces an existing model.
func TestSaveFileAtomic(t *testing.T) {
	s := dvfsSplits(t)
	d, err := New(s.Train, WithEnsembleSize(5), WithSeed(11), WithThreshold(0.35))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "model.gob")
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if back.Members() != d.Members() || back.Threshold() != d.Threshold() {
		t.Fatalf("SaveFile round trip lost config")
	}

	// Overwrite with a different detector: the path flips atomically.
	d2, err := New(s.Train, WithEnsembleSize(7), WithSeed(12), WithThreshold(0.35))
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	back2, err := Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if back2.Members() != 7 {
		t.Fatalf("overwrite served stale model: %d members", back2.Members())
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "model.gob" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("temp debris left behind: %v", names)
	}

	// Failure path: a missing directory errors and creates nothing.
	if err := d.SaveFile(filepath.Join(dir, "no-such-dir", "m.gob")); err == nil {
		t.Fatal("expected error saving into a missing directory")
	}
}

// rawGob carries a GobEncoder's bytes through a decode and back out
// unread, so a test can rewrite one layer of a saved detector and keep
// the layers around it byte for byte.
type rawGob []byte

func (r *rawGob) GobDecode(b []byte) error  { *r = append(rawGob(nil), b...); return nil }
func (r rawGob) GobEncode() ([]byte, error) { return r, nil }

// The wire forms of a saved detector, of its pipeline and of the pipeline's
// ensemble, with every other nested GobEncoder kept as bytes.
type (
	forgedDetector struct {
		Version                 int
		Model                   string
		Threshold               float64
		Workers                 int
		Decompose               bool
		Diversity               ensemble.Diversity
		Params                  Params
		Pipeline                rawGob
		PCA                     int
		Seed                    int64
		MaxSamples, MaxFeatures float64
	}
	forgedPipeline struct {
		M, PCAComponents        int
		Seed                    int64
		Diversity               ensemble.Diversity
		MaxSamples, MaxFeatures float64
		Workers                 int
		Scaler, PCA, Ens        rawGob
	}
	forgedBagging struct {
		M                       int
		Diversity               ensemble.Diversity
		MaxSamples, MaxFeatures float64
		Seed                    int64
		Workers                 int
		Members                 []model.Classifier
		Features                [][]int
		Classes                 int
	}
)

// forgeSubsets saves d, hands the member feature subsets of the saved
// ensemble to edit and returns the stream with the edited subsets.
func forgeSubsets(t *testing.T, d *Detector, edit func(features [][]int)) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var det forgedDetector
	var pipe forgedPipeline
	var ens forgedBagging
	if err := gob.NewDecoder(&buf).Decode(&det); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(bytes.NewReader(det.Pipeline)).Decode(&pipe); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(bytes.NewReader(pipe.Ens)).Decode(&ens); err != nil {
		t.Fatal(err)
	}
	edit(ens.Features)
	encode := func(v any) []byte {
		var out bytes.Buffer
		if err := gob.NewEncoder(&out).Encode(v); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	pipe.Ens = encode(ens)
	det.Pipeline = encode(pipe)
	return encode(det)
}

// TestLoadRejectsBadFeatureSubset: the vote walks gather a member's input
// by its feature subset unchecked, so a saved model naming a column
// outside the projected width used to load cleanly and then panic on the
// first assessment — in the daemon, on the coalescer's flusher goroutine,
// which ended the process. Load refuses such a model, a subset that is
// not strictly increasing (the only shape training draws), and a subset
// of a width the member was not trained on, for a linear and a tree
// family alike.
func TestLoadRejectsBadFeatureSubset(t *testing.T) {
	s := dvfsSplits(t)
	dets := map[string]*Detector{}
	for _, model := range []string{"lr", "rf"} {
		d, err := New(s.Train, WithModel(model), WithMaxFeatures(0.45), WithEnsembleSize(3), WithSeed(6))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(forgeSubsets(t, d, func([][]int) {}))); err != nil {
			t.Fatalf("%s: an unedited forged stream must load: %v", model, err)
		}
		dets[model] = d
	}
	cases := map[string]func(cols []int, width int) []int{
		"past the width":   func(cols []int, width int) []int { cols[len(cols)-1] = width; return cols },
		"negative":         func(cols []int, _ int) []int { cols[0] = -1; return cols },
		"repeated":         func(cols []int, _ int) []int { cols[1] = cols[0]; return cols },
		"descending":       func(cols []int, _ int) []int { cols[0], cols[1] = cols[1], cols[0]; return cols },
		"one column short": func(cols []int, _ int) []int { return cols[:len(cols)-1] },
	}
	for name, edit := range cases {
		t.Run(name, func(t *testing.T) {
			for model, d := range dets {
				width := d.pipe.InputDim()
				blob := forgeSubsets(t, d, func(features [][]int) {
					last := len(features) - 1
					features[last] = edit(features[last], width)
				})
				if _, err := Load(bytes.NewReader(blob)); err == nil || !strings.Contains(err.Error(), "feature subset") {
					t.Fatalf("%s: Load of a feature subset the vote walks cannot gather by: %v", model, err)
				}
			}
		})
	}
}
