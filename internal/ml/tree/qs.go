package tree

import (
	"fmt"
	"math/bits"

	"trusthmd/pkg/linalg"
	"trusthmd/pkg/linalg/kernel"
)

// qsSlab is the bitmask ("QuickScorer"-style) form of a flattened tree
// with at most 64 leaves. Instead of walking root-to-leaf per sample, the
// bitmask walk evaluates EVERY internal node unconditionally and tracks,
// per sample, a uint64 bitvector of still-possible exit leaves:
//
//	v = ^0
//	for each internal node n:   if !(x[feats[n]] <= thr[n]) { v &= masks[n] }
//	exit leaf = lowest set bit of v
//
// Leaves are numbered left to right — the order the flat slab stores them
// in, so leaf number = node index - nInternal — and a node's left subtree
// therefore occupies one contiguous bit range. masks[n] clears exactly
// node n's left-subtree leaves — the leaves ruled out when the comparison
// goes false (right). The true exit
// leaf is never cleared (every ancestor's decision spares its subtree;
// non-ancestors clear only leaves outside the exit path), and the classic
// QuickScorer argument makes it the minimum surviving index.
//
// Because the refinement is an AND-lattice, node order is irrelevant and
// the SIMD kernel (pkg/linalg/kernel.TreeMask32: 32 samples per call over
// feature-major storage) is bit-identical to the scalar walk by
// construction — including NaN inputs, which fail every comparison and
// take the all-right path exactly as the branchy walk does.
type qsSlab struct {
	thr        []float64 // internal-node thresholds, preorder
	masks      []uint64  // complement of each node's left-subtree leaf range
	feats      []uint32  // internal-node split features
	leafLabels []int32   // majority label per leaf, left-to-right

	// lab64 is leafLabels padded to the full bitvector width so the
	// extraction loop can index it with TrailingZeros64(v)&63 — provably
	// in range, so the compiler drops the bounds check on the hottest
	// scalar loop of the batched walk. Padding entries are never selected
	// (the true exit leaf always survives, so v is never zero).
	lab64 [64]int32
}

// qsMaxLeaves bounds the bitvector width. Forest trees on the paper's DVFS
// workload average ~23 leaves; trees with more leaves have no bitmask form
// and every batch goes through PredictBatch, which picks the lockstep
// kernel below 32 rows and the level walk from 32 up.
const qsMaxLeaves = 64

// allOnes32 is the fresh "every leaf still possible" bitvector block,
// copied (one memmove) instead of stored in a 32-iteration loop.
var allOnes32 = func() (v [32]uint64) {
	for i := range v {
		v[i] = ^uint64(0)
	}
	return
}()

// buildQS derives the bitmask slab from the flat slab. Called by the slab
// writer's finish (so Fit and GobDecode both build it); trees with more than 64 leaves
// leave qs nil and are served by PredictBatch's walks alone.
func (t *Tree) buildQS() {
	t.qs = nil
	nLeaves := len(t.flat) - t.nInternal
	if nLeaves > qsMaxLeaves {
		return
	}
	qs := &qsSlab{
		thr:        make([]float64, 0, t.nInternal),
		masks:      make([]uint64, 0, t.nInternal),
		feats:      make([]uint32, 0, t.nInternal),
		leafLabels: make([]int32, 0, nLeaves),
	}
	var walk func(i int32) (lo, hi int)
	walk = func(i int32) (int, int) {
		nd := &t.flat[i]
		if nd.isLeaf(i) {
			lf := len(qs.leafLabels)
			qs.leafLabels = append(qs.leafLabels, t.labels[i])
			return lf, lf + 1
		}
		pos := len(qs.thr)
		qs.thr = append(qs.thr, nd.threshold)
		qs.feats = append(qs.feats, uint32(nd.feature))
		qs.masks = append(qs.masks, 0)
		llo, lhi := walk(nd.left)
		_, rhi := walk(nd.right)
		// Left-subtree width is at most 63 here: the right subtree holds at
		// least one of the <=64 leaves, so the shift cannot overflow.
		width := lhi - llo
		qs.masks[pos] = ^(((uint64(1) << width) - 1) << llo)
		return llo, rhi
	}
	walk(0)
	copy(qs.lab64[:], qs.leafLabels)
	t.qs = qs
}

// WantsCols reports whether PredictBatchCols would use the vectorized
// bitmask walk — i.e. whether transposing the batch for this tree pays.
// False for unfitted trees, trees with more than 64 leaves, and hosts
// whose dispatched kernel has no vector tree step.
func (t *Tree) WantsCols() bool {
	return t.qs != nil && kernel.TreeMaskSIMD()
}

// PredictBatchCols is PredictBatch with the batch also provided in
// feature-major (transposed) form: XT must be the transpose of X, computed
// once per batch and shared by every tree of the ensemble. Predictions are
// identical to PredictBatch — rows run through the bitmask kernel 32 at a
// time, the ragged tail through the scalar walk — and the method falls
// back to PredictBatch entirely when the bitmask form is unavailable.
func (t *Tree) PredictBatchCols(X, XT *linalg.Matrix, out []int) {
	if !t.WantsCols() || XT == nil || XT.Rows() != X.Cols() || XT.Cols() != X.Rows() {
		t.PredictBatch(X, out)
		return
	}
	if len(out) != X.Rows() {
		panic(fmt.Sprintf("tree: predict batch out len %d for %d rows", len(out), X.Rows()))
	}
	if X.Rows() > 0 && X.Cols() != t.nFeatures {
		panic(fmt.Sprintf("tree: input has %d features, trained on %d", X.Cols(), t.nFeatures))
	}
	qs := t.qs
	labels := &qs.lab64
	raw, stride := XT.Raw(), XT.Cols()
	n := len(out)
	r0 := 0
	for ; r0+32 <= n; r0 += 32 {
		v := allOnes32
		kernel.TreeMask32(&v, qs.thr, qs.masks, qs.feats, raw[r0:], stride)
		ov := out[r0 : r0+32 : r0+32]
		for j, vv := range v {
			// &63 makes the index provably in range (v is never zero: the
			// exit leaf always survives), eliding the bounds check.
			ov[j] = int(labels[bits.TrailingZeros64(vv)&63])
		}
	}
	if r0 < n {
		data, cols := X.Raw(), X.Cols()
		for ; r0 < n; r0++ {
			out[r0] = int(t.labels[t.leafOf(data[r0*cols:(r0+1)*cols])])
		}
	}
}
