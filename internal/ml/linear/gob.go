package linear

import (
	"bytes"
	"encoding/gob"
)

func init() {
	// Self-register so linear members survive gob encoding behind the
	// model.Classifier interface.
	gob.Register(&Logistic{})
	gob.Register(&SVM{})
}

// logisticGob is the exported wire form of a trained Logistic.
type logisticGob struct {
	Cfg  LogisticConfig
	W    []float64
	Bias float64
}

// GobEncode implements gob.GobEncoder for trained-pipeline serialization.
func (l *Logistic) GobEncode() ([]byte, error) {
	if l.w == nil {
		return nil, ErrNotFitted
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(logisticGob{Cfg: l.cfg, W: l.w, Bias: l.bias}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (l *Logistic) GobDecode(b []byte) error {
	var g logisticGob
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&g); err != nil {
		return err
	}
	l.cfg, l.w, l.bias = g.Cfg, g.W, g.Bias
	return nil
}

// svmGob is the exported wire form of a trained SVM.
type svmGob struct {
	Cfg       SVMConfig
	W         []float64
	Bias      float64
	Converged bool
	Objective float64
	Epochs    int
}

// GobEncode implements gob.GobEncoder for trained-pipeline serialization.
func (s *SVM) GobEncode() ([]byte, error) {
	if s.w == nil {
		return nil, ErrNotFitted
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(svmGob{
		Cfg: s.cfg, W: s.w, Bias: s.bias,
		Converged: s.converged, Objective: s.objective, Epochs: s.epochs,
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (s *SVM) GobDecode(b []byte) error {
	var g svmGob
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&g); err != nil {
		return err
	}
	s.cfg, s.w, s.bias = g.Cfg, g.W, g.Bias
	s.converged, s.objective, s.epochs = g.Converged, g.Objective, g.Epochs
	return nil
}
