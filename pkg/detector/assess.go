package detector

import (
	"errors"
	"fmt"

	"trusthmd/internal/core"
	"trusthmd/pkg/dataset"
	"trusthmd/pkg/linalg"
)

// The entry points below are wrappers over (*Detector).assess; the package
// comment tabulates which scratch and which VoteDist owner each one picks.

// Assess runs the trusted path on one raw feature vector through a pooled
// scratch. The result is independently owned: its VoteDist is the one
// steady-state allocation.
func (d *Detector) Assess(x []float64) (Result, error) {
	// No defer on the Put: a panic merely forfeits a pooled scratch, and
	// this is the one wrapper short enough for the defer to show.
	s := batchScratchPool.Get().(*BatchScratch)
	r, err := d.AssessInto(s, x)
	if r.VoteDist != nil {
		// Copy the scratch-owned VoteDist out by make and copy: measurably
		// cheaper than slices.Clone's growslice route here, where it is the
		// only allocation.
		v := make([]float64, len(r.VoteDist))
		copy(v, r.VoteDist)
		r.VoteDist = v
	}
	batchScratchPool.Put(s)
	return r, err
}

// AssessInto is Assess with caller-owned memory: every buffer lives in s,
// so a steady-state caller assessing one sample at a time allocates
// nothing. The returned Result (including its VoteDist) is valid only
// until the scratch's next use.
func (d *Detector) AssessInto(s *BatchScratch, x []float64) (Result, error) {
	s.row[0] = x
	rs, err := d.assess(s, s.row[:], false)
	s.row[0] = nil // do not pin the caller's vector past the call
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// AssessBatch assesses a batch of raw feature vectors through a pooled
// scratch; results are element-wise identical to calling Assess on each
// vector. The returned results (and their VoteDist slices) are freshly
// allocated and safe to retain — callers that can reuse one workspace
// across calls should prefer AssessBatchInto, which allocates nothing.
func (d *Detector) AssessBatch(X [][]float64) ([]Result, error) {
	s := batchScratchPool.Get().(*BatchScratch)
	defer batchScratchPool.Put(s)
	return d.assess(s, X, true)
}

// AssessBatchInto is AssessBatch with caller-owned memory: every buffer —
// including the returned results and their VoteDist slices — lives in s
// and is reused by the next call, so steady-state batched assessment
// allocates nothing (see TestAllocsAssessBatchInto).
func (d *Detector) AssessBatchInto(s *BatchScratch, X [][]float64) ([]Result, error) {
	return d.assess(s, X, false)
}

// AssessDataset assesses every sample of a dataset; results are owned by
// the caller, as with AssessBatch.
func (d *Detector) AssessDataset(ds *dataset.Dataset) ([]Result, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, errors.New("detector: empty dataset")
	}
	rows := make([][]float64, ds.Len())
	for i := range rows {
		rows[i] = ds.At(i).Features
	}
	return d.AssessBatch(rows)
}

// colsBlock is the batch size from which a feature-major copy of the
// projected batch is read at all: the vectorized tree kernel consumes it
// in whole 32-row blocks (model.ColsBatchClassifier) and walks any shorter
// remainder row-major.
const colsBlock = 32

// assess is the detector's single inference path — the only place raw rows
// become results:
//
//	project rows into s → transpose iff a member kernel will read it →
//	accumulate member votes → summarize each histogram → decide →
//	decompose each row iff the detector was built WithDecomposition
//
// With fresh set, the results and their VoteDist backing are allocated for
// the caller to keep; otherwise both live in s until its next use. Every
// choice between walks is made from what the call can observe (batch
// size, member capabilities) and none changes a result: each row is
// bit-identical to hmd.Pipeline.Assess on that row. The members vote
// serially on the caller's goroutine — a 64-row batch over 25 trees is
// less work than fanning them out — so parallelism comes from concurrent
// calls, never from inside one. A member vote outside the two classes
// fails the call.
func (d *Detector) assess(s *BatchScratch, rows [][]float64, fresh bool) ([]Result, error) {
	if len(rows) == 0 {
		return nil, errors.New("detector: empty batch")
	}
	s.init()
	Z, err := d.pipe.ProjectRowsScratch(rows, s.work, s.reduced)
	if err != nil {
		return nil, fmt.Errorf("detector: %w", err)
	}
	n, k := Z.Rows(), d.pipe.Classes()

	// One transpose per batch, shared read-only by every member that wants
	// feature-major loads.
	var ZT *linalg.Matrix
	if n >= colsBlock && d.pipe.WantsCols() {
		s.workT.ResizeUnset(Z.Cols(), n) // TInto writes every cell
		if err := Z.TInto(s.workT); err != nil {
			return nil, fmt.Errorf("detector: %w", err)
		}
		ZT = s.workT
	}
	s.counts = growInts(s.counts, n*k)
	clear(s.counts)
	s.votes = growInts(s.votes, n)
	s.input = growFloats(s.input, Z.Cols()) // bounds every member's feature subset
	if err := d.pipe.AccumulateVotes(Z, ZT, s.counts, 0, d.pipe.Members(), s.votes, s.input); err != nil {
		return nil, fmt.Errorf("detector: %w", err)
	}

	var results []Result
	var dists []float64
	if fresh {
		results, dists = make([]Result, n), make([]float64, n*k)
	} else {
		if cap(s.results) < n {
			s.results = make([]Result, n)
		}
		s.results = s.results[:n]
		s.dists = growFloats(s.dists, n*k)
		results, dists = s.results, s.dists
	}
	rej := core.Rejector{Threshold: d.cfg.threshold}
	for i := range results {
		// Full slice expressions cap each VoteDist at its own window so a
		// caller appending to one result cannot overwrite its neighbour.
		a, err := d.pipe.SummarizeCounts(s.counts[i*k:(i+1)*k], dists[i*k:(i+1)*k:(i+1)*k])
		var decision core.Decision
		if err == nil {
			decision, err = rej.Decide(a.Prediction, a.Entropy)
		}
		var dec *Decomposition
		if err == nil && d.cfg.decompose {
			var dc core.Decomposition
			dc, err = d.pipe.Decompose(Z.Row(i))
			dec = (*Decomposition)(&dc)
		}
		if err != nil {
			return nil, fmt.Errorf("detector: sample %d: %w", i, err)
		}
		results[i] = Result{
			Prediction:    a.Prediction,
			Entropy:       a.Entropy,
			VoteDist:      a.VoteDist,
			Decision:      Decision(decision),
			Decomposition: dec,
		}
	}
	return results, nil
}
