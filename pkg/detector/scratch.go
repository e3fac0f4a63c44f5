package detector

import (
	"sync"

	"trusthmd/pkg/linalg"
)

// BatchScratch is the workspace of the assess core: scaled input,
// projection, transpose, vote histograms and (for the ...Into entry
// points) the returned results all live in one arena that is regrown on
// demand and never shrunk. A steady-state caller assessing same-sized
// batches performs zero heap allocations per call. The zero BatchScratch
// is ready to use.
//
// A BatchScratch may be used by one goroutine at a time, and the results
// returned by AssessInto / AssessBatchInto (including their VoteDist
// slices) remain valid only until the scratch's next use. Callers that
// hand results to other goroutines or retain them across calls must copy
// them first, or use Assess / AssessBatch, which return independently
// owned results.
type BatchScratch struct {
	work    *linalg.Matrix // scaled input rows
	reduced *linalg.Matrix // PCA projection, when that stage exists
	workT   *linalg.Matrix // transpose of the projected batch, when a member kernel reads it
	counts  []int          // row-major n x classes vote histograms
	votes   []int          // per-member batched vote scratch
	input   []float64      // member feature-subset scratch
	dists   []float64      // VoteDist backing for scratch-owned results
	results []Result
	row     [1][]float64 // 1-row batch view for AssessInto
}

// batchScratchPool lends scratches to the entry points that take none
// (Assess, AssessBatch, AssessDataset). Scratches are shape-agnostic —
// every buffer is resized per call — so one pool serves every detector.
var batchScratchPool = sync.Pool{New: func() any { return new(BatchScratch) }}

func (s *BatchScratch) init() {
	if s.work == nil {
		s.work = linalg.New(0, 0)
		s.reduced = linalg.New(0, 0)
		s.workT = linalg.New(0, 0)
	}
}

// growInts returns b resized to n, reallocating only on growth.
func growInts(b []int, n int) []int {
	if cap(b) < n {
		return make([]int, n)
	}
	return b[:n]
}

// growFloats returns b resized to n, reallocating only on growth.
func growFloats(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}
