package hmd

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"trusthmd/internal/ensemble"
	"trusthmd/internal/reduce"
	"trusthmd/pkg/dataset"
)

// pipelineGob is the exported wire form of a trained Pipeline. The member
// factory is not serialized: a decoded pipeline can assess but not refit —
// retraining goes back through the model registry in pkg/detector.
type pipelineGob struct {
	M             int
	PCAComponents int
	Seed          int64
	Diversity     ensemble.Diversity
	MaxSamples    float64
	MaxFeatures   float64
	Workers       int
	Scaler        *dataset.Scaler
	PCA           *reduce.PCA
	Ens           *ensemble.Bagging
}

// GobEncode implements gob.GobEncoder so cmd/trusthmd can train once and
// serve many (detector.Save / detector.Load).
func (p *Pipeline) GobEncode() ([]byte, error) {
	if p.ens == nil {
		return nil, errors.New("hmd: cannot encode an untrained pipeline")
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(pipelineGob{
		M:             p.cfg.M,
		PCAComponents: p.cfg.PCAComponents,
		Seed:          p.cfg.Seed,
		Diversity:     p.cfg.Diversity,
		MaxSamples:    p.cfg.MaxSamples,
		MaxFeatures:   p.cfg.MaxFeatures,
		Workers:       p.cfg.Workers,
		Scaler:        p.scaler,
		PCA:           p.pca,
		Ens:           p.ens,
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder. It refuses an ensemble whose member
// feature subsets are not strictly increasing columns of the projected
// width: the vote walks gather by those indices unchecked, and a panic
// there would take down whatever goroutine serves the first assessment.
func (p *Pipeline) GobDecode(b []byte) error {
	var g pipelineGob
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&g); err != nil {
		return err
	}
	if g.Scaler == nil || g.Ens == nil {
		return errors.New("hmd: corrupt pipeline gob")
	}
	width := g.Scaler.Dim()
	if g.PCA != nil {
		width = g.PCA.K()
	}
	if _, err := g.Ens.MaxMemberDim(width); err != nil {
		return fmt.Errorf("hmd: corrupt pipeline gob: %w", err)
	}
	p.cfg = Config{
		M:             g.M,
		PCAComponents: g.PCAComponents,
		Seed:          g.Seed,
		Diversity:     g.Diversity,
		MaxSamples:    g.MaxSamples,
		MaxFeatures:   g.MaxFeatures,
		Workers:       g.Workers,
	}
	p.scaler = g.Scaler
	p.pca = g.PCA
	p.ens = g.Ens
	return nil
}
