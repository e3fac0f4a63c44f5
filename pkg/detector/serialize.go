package detector

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"trusthmd/internal/ensemble"
	"trusthmd/internal/hmd"
)

// serialVersion guards the wire format of Save/Load.
//
// Version history:
//
//	1 — model, threshold, workers, decompose, diversity, params, pipeline.
//	2 — adds the remaining training-time configuration (PCA components,
//	    seed, maxSamples, maxFeatures) so a Load→Save round trip and
//	    WithOptions on a loaded detector report the pipeline faithfully.
const serialVersion = 2

// savedDetector is the exported wire form of a trained Detector. Gob
// matches struct fields by name, so version-1 streams (which lack the
// training-time fields) decode into it with those fields left zero.
type savedDetector struct {
	Version   int
	Model     string
	Threshold float64
	Workers   int
	Decompose bool
	Diversity ensemble.Diversity
	Params    Params
	Pipeline  *hmd.Pipeline

	// Training-time configuration, persisted since version 2.
	PCA         int
	Seed        int64
	MaxSamples  float64
	MaxFeatures float64
}

// Save serializes the trained detector to w (gob encoding) so a service
// can train once and serve many. Everything needed for inference — fitted
// scaler, PCA basis, every trained ensemble member, threshold and model
// name — is included, along with the training-time configuration, so Load
// restores a detector with identical decisions and an identical Info.
func (d *Detector) Save(w io.Writer) error {
	if d.pipe == nil {
		return errors.New("detector: cannot save an untrained detector")
	}
	err := gob.NewEncoder(w).Encode(savedDetector{
		Version:     serialVersion,
		Model:       d.cfg.model,
		Threshold:   d.cfg.threshold,
		Workers:     d.cfg.workers,
		Decompose:   d.cfg.decompose,
		Diversity:   d.cfg.diversity,
		Params:      d.cfg.params,
		Pipeline:    d.pipe,
		PCA:         d.cfg.pca,
		Seed:        d.cfg.seed,
		MaxSamples:  d.cfg.maxSamples,
		MaxFeatures: d.cfg.maxFeatures,
	})
	if err != nil {
		return fmt.Errorf("detector: save: %w", err)
	}
	return nil
}

// SaveFile writes the detector to path crash-safely: the gob stream goes
// to a temp file in the same directory, is fsynced, and is renamed into
// place. A concurrent reader — a daemon's POST /v1/models {"path": ...}
// load — sees either the previous complete model or the new complete model,
// never a torn write; a crash mid-save leaves the previous file intact.
func (d *Detector) SaveFile(path string) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("detector: save: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = d.Save(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("detector: save: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("detector: save: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("detector: save: %w", err)
	}
	return nil
}

// Load deserializes a detector previously written by Save. The loaded
// detector serves assessments immediately; custom (non-built-in) member
// types must have been registered — via Register's prototypes or a gob
// registration — before Load.
//
// Version-1 streams still load: they predate the persisted training-time
// configuration, so the loaded detector's Info reports default PCA, seed
// and subsample fractions (inference is unaffected — the fitted pipeline
// stages themselves were always serialized).
func Load(r io.Reader) (*Detector, error) {
	var g savedDetector
	if err := gob.NewDecoder(r).Decode(&g); err != nil {
		return nil, fmt.Errorf("detector: load: %w", err)
	}
	if g.Version < 1 || g.Version > serialVersion {
		return nil, fmt.Errorf("detector: load: unsupported format version %d", g.Version)
	}
	if g.Pipeline == nil {
		return nil, errors.New("detector: load: no pipeline in stream")
	}
	cfg := defaults()
	cfg.model = canonical(g.Model)
	cfg.threshold = g.Threshold
	cfg.workers = g.Workers
	cfg.decompose = g.Decompose
	cfg.diversity = g.Diversity
	cfg.params = g.Params
	cfg.m = g.Pipeline.Members()
	cfg.pca = g.PCA
	cfg.seed = g.Seed
	cfg.maxSamples = g.MaxSamples
	cfg.maxFeatures = g.MaxFeatures
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("detector: load: %w", err)
	}
	return &Detector{cfg: cfg, pipe: g.Pipeline}, nil
}
