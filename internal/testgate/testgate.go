// Package testgate registers a test-only classifier family whose members
// wait at a process-wide gate inside Predict. Holding the gate keeps every
// caller that is assessing a "test-gated" detector inside its assessment
// for as long as a test needs, which is how a test puts an exact number of
// requests in flight at once — or holds them across a hot swap or a
// shutdown — without any timing assumption.
//
// Tests import it for the registration side effect, train (or gob-load) a
// detector with detector.WithModel(testgate.Model), and bracket the phase
// that needs held callers with Hold / release.
package testgate

import (
	"sync"
	"testing"

	"trusthmd/pkg/detector"
	"trusthmd/pkg/linalg"
	"trusthmd/pkg/model"
)

// Model is the registered family name.
const Model = "test-gated"

// gate is write-held between Hold and release; Predict passes through it
// as a reader.
var gate sync.RWMutex

// Stump votes on the sign of one projected feature, so verdicts differ
// from row to row and an ensemble's members disagree.
type Stump struct{ Feature int }

func (s *Stump) Fit(*linalg.Matrix, []int) error { return nil }

func (s *Stump) Predict(x []float64) int {
	gate.RLock() // wait out a hold; there is nothing to do inside
	gate.RUnlock()
	if x[s.Feature%len(x)] > 0 {
		return 1
	}
	return 0
}

func init() {
	detector.Register(Model, func(detector.Params) model.Factory {
		return func(seed int64) model.Classifier { return &Stump{Feature: int(uint64(seed) % 1024)} }
	}, &Stump{})
}

// Hold closes the gate: every Predict of a gated member blocks until the
// returned release runs. release is idempotent and also runs at test
// cleanup, so a failing test cannot leave callers stuck.
func Hold(t testing.TB) (release func()) {
	gate.Lock()
	var once sync.Once
	release = func() { once.Do(gate.Unlock) }
	t.Cleanup(release)
	return release
}
