package knn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"trusthmd/pkg/linalg"
)

func init() {
	// Self-register so kNN members survive gob encoding behind the
	// ensemble.Classifier interface.
	gob.Register(&KNN{})
}

// knnGob is the exported wire form of a fitted KNN.
type knnGob struct {
	Cfg     Config
	X       *linalg.Matrix
	Y       []int
	Classes int
}

// GobEncode implements gob.GobEncoder for trained-pipeline serialization.
func (k *KNN) GobEncode() ([]byte, error) {
	if k.X == nil {
		return nil, ErrNotFitted
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(knnGob{Cfg: k.cfg, X: k.X, Y: k.y, Classes: k.classes}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder. It refuses a model Fit and New
// could not have produced — no training rows, a label count other than
// the row count, a label outside [0, Classes), Classes other than Fit's
// max(label+1, 2), or K below 1 — because Predict indexes labels and
// class counts by those shapes unchecked.
func (k *KNN) GobDecode(b []byte) error {
	var g knnGob
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&g); err != nil {
		return err
	}
	if g.X == nil || g.X.Rows() == 0 {
		return errors.New("knn: corrupt gob: no training rows")
	}
	if len(g.Y) != g.X.Rows() {
		return fmt.Errorf("knn: corrupt gob: %d training rows with %d labels", g.X.Rows(), len(g.Y))
	}
	if g.Cfg.K < 1 {
		return fmt.Errorf("knn: corrupt gob: K %d", g.Cfg.K)
	}
	classes := 2
	for i, lab := range g.Y {
		if lab < 0 || lab >= g.Classes {
			return fmt.Errorf("knn: corrupt gob: label %d at row %d outside [0, %d)", lab, i, g.Classes)
		}
		classes = max(classes, lab+1)
	}
	if g.Classes != classes {
		return fmt.Errorf("knn: corrupt gob: %d classes, labels imply %d", g.Classes, classes)
	}
	k.cfg, k.X, k.y, k.classes = g.Cfg, g.X, g.Y, g.Classes
	return nil
}
