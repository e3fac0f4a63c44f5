package bayes

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

func init() {
	// Self-register so NB members survive gob encoding behind the
	// model.Classifier interface.
	gob.Register(&Gaussian{})
}

// gaussianGob is the exported wire form of a trained Gaussian NB.
type gaussianGob struct {
	Cfg     Config
	Classes int
	Prior   []float64
	Mean    [][]float64
	Vari    [][]float64
}

// GobEncode implements gob.GobEncoder for trained-pipeline serialization.
func (g *Gaussian) GobEncode() ([]byte, error) {
	if g.mean == nil {
		return nil, ErrNotFitted
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(gaussianGob{
		Cfg: g.cfg, Classes: g.classes, Prior: g.prior, Mean: g.mean, Vari: g.vari,
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder. It refuses a model whose shapes
// disagree — one prior, mean row and variance row per class, every row as
// wide as the first — because Predict indexes by those shapes unchecked.
func (g *Gaussian) GobDecode(b []byte) error {
	var w gaussianGob
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	if w.Classes < 1 || len(w.Prior) != w.Classes || len(w.Mean) != w.Classes || len(w.Vari) != w.Classes {
		return fmt.Errorf("bayes: corrupt gob: %d classes with %d priors, %d mean rows, %d variance rows",
			w.Classes, len(w.Prior), len(w.Mean), len(w.Vari))
	}
	d := len(w.Mean[0])
	for c := range w.Mean {
		if len(w.Mean[c]) != d || len(w.Vari[c]) != d {
			return fmt.Errorf("bayes: corrupt gob: class %d has %d means and %d variances, want %d each",
				c, len(w.Mean[c]), len(w.Vari[c]), d)
		}
	}
	g.cfg, g.classes, g.prior, g.mean, g.vari = w.Cfg, w.Classes, w.Prior, w.Mean, w.Vari
	return nil
}
