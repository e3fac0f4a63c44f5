package ensemble

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"trusthmd/pkg/model"
)

// baggingGob is the exported wire form of a trained Bagging ensemble. The
// member factory (Config.New) is deliberately not serialized — a decoded
// ensemble can predict but must be rebuilt through a factory to refit.
// Concrete member types must be gob-registered; the internal/ml packages
// self-register in their init functions, and detector.Register accepts
// prototypes for external families.
type baggingGob struct {
	M           int
	Diversity   Diversity
	MaxSamples  float64
	MaxFeatures float64
	Seed        int64
	Workers     int
	Members     []model.Classifier
	Features    [][]int
	Classes     int
}

// GobEncode implements gob.GobEncoder for trained-pipeline serialization.
func (b *Bagging) GobEncode() ([]byte, error) {
	if b.members == nil {
		return nil, ErrNotFitted
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(baggingGob{
		M:           b.cfg.M,
		Diversity:   b.cfg.Diversity,
		MaxSamples:  b.cfg.MaxSamples,
		MaxFeatures: b.cfg.MaxFeatures,
		Seed:        b.cfg.Seed,
		Workers:     b.cfg.Workers,
		Members:     b.members,
		Features:    b.features,
		Classes:     b.classes,
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (b *Bagging) GobDecode(data []byte) error {
	var g baggingGob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&g); err != nil {
		return err
	}
	if len(g.Members) == 0 {
		return errors.New("ensemble: corrupt gob: no members")
	}
	if len(g.Features) != len(g.Members) {
		// GobEncode always writes one (possibly nil) feature set per member;
		// a mismatch means corruption, and guessing "all features" here would
		// feed full-width vectors to members trained on subspaces.
		return fmt.Errorf("ensemble: corrupt gob: %d feature sets for %d members",
			len(g.Features), len(g.Members))
	}
	// Gob flattens nil inner slices to empty ones; memberInput relies on
	// nil meaning "all features", so normalise.
	for i, f := range g.Features {
		if len(f) == 0 {
			g.Features[i] = nil
		}
	}
	b.cfg = Config{
		M:           g.M,
		Diversity:   g.Diversity,
		MaxSamples:  g.MaxSamples,
		MaxFeatures: g.MaxFeatures,
		Seed:        g.Seed,
		Workers:     g.Workers,
	}
	b.members = g.Members
	b.features = g.Features
	b.classes = g.Classes
	return nil
}
