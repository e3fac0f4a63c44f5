// Package tree implements CART decision trees for classification: binary
// axis-aligned splits chosen by Gini impurity or entropy, with depth,
// minimum-leaf and random feature-subset controls. Trees are the base
// classifiers of the random-forest ensemble used throughout the paper's
// evaluation.
//
// Trees grow with the presorted-column builder (see builder) over a
// presort: every feature of the training set sorted once, each value
// replaced by its dense rank among the feature's distinct values. An
// ensemble sorts its training set once and every member grows from that one
// presort (Presort, the model.Presorter hook), its bootstrap replicate given
// as a count per row and its feature subset as a column map; Fit is the
// same builder over a presort of its own, every row counted once. A node's
// rows are ordered by a feature the first time the node's path draws it —
// at the root by filtering the presort's order down to the counted rows,
// further down by a radix sort of their keys — and every node below
// inherits that order through a stable partition instead of sorting again:
// O(g) per feature per tree level for g counted rows, where a per-node
// sort pays O(n log n) per candidate feature at every node. A split scan
// has two forms, chosen by the criterion and the class count: integer
// counts with the Gini arithmetic written out for two classes under Gini,
// the generic impurity loop otherwise.
//
// The tree that comes out is byte-identical to the per-node-sort one over
// every copy of every row (TestFitMatchesReference,
// FuzzFitMatchesReference, and in internal/ensemble
// TestForestFitMatchesReplicates against members fitted on copied
// replicates): the copies of a row have equal values, so no split position
// ever falls between them, and every position that is evaluated sees the
// same integer counts, hence the same gains in the same order and the same
// threshold. Trained models, verdicts and saved blobs do not depend on
// which builder produced them.
package tree

import (
	"errors"
	"fmt"
	"math"
	"unsafe"

	"trusthmd/pkg/linalg"
)

// Criterion selects the split-quality measure.
type Criterion int

const (
	// Gini selects splits by Gini impurity decrease (CART default).
	Gini Criterion = iota
	// Entropy selects splits by information gain.
	Entropy
)

// String implements fmt.Stringer.
func (c Criterion) String() string {
	switch c {
	case Gini:
		return "gini"
	case Entropy:
		return "entropy"
	default:
		return fmt.Sprintf("criterion(%d)", int(c))
	}
}

// Config controls tree induction. The zero value means: unlimited depth,
// leaves of at least one sample, all features considered at every split,
// Gini impurity.
type Config struct {
	// MaxDepth limits tree depth; 0 means unlimited.
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf; values < 1 are
	// treated as 1.
	MinLeaf int
	// MaxFeatures is the number of features sampled (without replacement)
	// as split candidates at each node; 0 means all features and -1 means
	// round(sqrt(d)) chosen at fit time. Setting it to roughly sqrt(d)
	// turns bagged trees into a random forest.
	MaxFeatures int
	// Criterion is the impurity measure.
	Criterion Criterion
	// Seed drives the feature sub-sampling. Trees with MaxFeatures == 0 are
	// fully deterministic regardless of Seed.
	Seed int64
}

// Tree is a trained CART classifier. The zero value is unusable; call Fit.
type Tree struct {
	cfg       Config
	nFeatures int
	nClasses  int
	nodes     int

	// flat is the tree, in the one form it is kept in: a contiguous
	// array-of-structs slab, internal nodes first. The nInternal internal
	// nodes fill [0, nInternal) in preorder among themselves (so an internal
	// left child of node i is i+1 and the root of any tree that splits is
	// 0); the leaves follow in [nInternal, len(flat)), also in preorder, i.e.
	// left to right. A strictly binary tree has one leaf more than it has
	// internal nodes, so len(flat) is 2*nInternal+1, and a tree that is one
	// leaf has nInternal == 0. leafSlab holds the leaf class histograms
	// concatenated in leaf order, labels the majority label per node index
	// (-1 for internal nodes), and flatDepth is the longest root-to-leaf
	// path. Fit and GobDecode write all of it through one slabWriter, and
	// GobEncode reads the wire form back off it; flat is nil exactly when
	// the tree is unfitted.
	//
	// Who reads which half: the per-row walk (leafOf) and the lockstep
	// kernel load whatever node they stand on, leaves included; the level
	// walk finishes a row the moment its next index is >= nInternal and
	// never loads a leaf node, so its working set is the internal half
	// alone.
	flat      []flatNode
	leafSlab  []int
	labels    []int32
	flatDepth int
	nInternal int

	// qs is the bitmask ("QuickScorer") form of flat for trees with <=64
	// leaves; see qs.go. Rebuilt alongside flat, nil when unavailable.
	qs *qsSlab
}

// flatNode is one packed tree node; 24 bytes keeps the internal half of
// even a purity-grown HPC tree (~1300 internal nodes) L1-resident. right
// and left are adjacent, in that order, on purpose: the level walk picks
// the child by address, right's offset plus 4 when x <= threshold holds —
// the comparison's own 0/1, with nothing to invert. Leaves SELF-LOOP:
// left and right hold the leaf's own index, feature is 0 and threshold
// +Inf, so a walk that has reached a leaf can keep "stepping" without
// moving or branching on a leaf test. That lets the lockstep kernel
// advance several rows for a fixed flatDepth iterations with no per-node
// leaf check at all — rows that arrive early simply spin in place — which
// converts the walk's serial pointer-chase latency into memory-level
// parallelism. leafOff is the leaf's offset into the shared histogram slab
// (-1 on internal nodes).
type flatNode struct {
	threshold float64
	feature   int32
	right     int32
	left      int32
	leafOff   int32
}

// isLeaf reports whether the node at index i self-loops.
func (n *flatNode) isLeaf(i int32) bool { return n.left == i }

// slabWriter lays a tree down in the slab's layout (see Tree.flat) as a
// depth-first preorder walk hands it the nodes; Fit's builder and
// GobDecode are its two callers. split gives an internal node the next
// internal index when it opens, before its children are written, which
// keeps the internal nodes in preorder; leaf gives a leaf the next leaf
// number and appends its histogram. A leaf's slab index is nInternal plus
// its number, and nInternal is known only once the walk is over, so a
// child that is a leaf is held as ^number until finish resolves it.
type slabWriter struct {
	internal []flatNode // the internal nodes, by index
	leafSlab []int      // the leaf histograms, by leaf number
	leaves   int
	depth    int // the deepest leaf so far
}

// split opens an internal node and returns its index; children sets its
// children once they are written.
func (w *slabWriter) split(feature int, threshold float64) int32 {
	w.internal = append(w.internal, flatNode{threshold: threshold, feature: int32(feature), leafOff: -1})
	return int32(len(w.internal) - 1)
}

func (w *slabWriter) children(i, left, right int32) {
	w.internal[i].left, w.internal[i].right = left, right
}

// leaf writes a leaf with the class histogram counts at the given depth and
// returns its child reference, ^number.
func (w *slabWriter) leaf(counts []int, depth int) int32 {
	w.depth = max(w.depth, depth)
	w.leafSlab = append(w.leafSlab, counts...)
	w.leaves++
	return ^int32(w.leaves - 1)
}

// finish installs the written tree in t, whose nClasses is the width of
// every histogram: the internal nodes with their leaf children resolved,
// then the self-looping leaves, in slices of exactly their size, and the
// bitmask form built from them.
func (w *slabWriter) finish(t *Tree) {
	nInt := int32(len(w.internal))
	n := len(w.internal) + w.leaves
	t.flat = make([]flatNode, n)
	t.labels = make([]int32, n)
	for i, nd := range w.internal {
		if nd.left < 0 {
			nd.left = nInt + ^nd.left
		}
		if nd.right < 0 {
			nd.right = nInt + ^nd.right
		}
		t.flat[i] = nd
		t.labels[i] = -1
	}
	for lf := range w.leaves {
		// Self-loop: both children point home and the +Inf threshold makes
		// the comparison outcome irrelevant (any value, NaN included, stays
		// put).
		i, off := nInt+int32(lf), lf*t.nClasses
		t.flat[i] = flatNode{threshold: math.Inf(1), left: i, right: i, leafOff: int32(off)}
		t.labels[i] = int32(majorityLabel(w.leafSlab[off : off+t.nClasses]))
	}
	t.leafSlab = append(make([]int, 0, len(w.leafSlab)), w.leafSlab...)
	t.nInternal, t.flatDepth = int(nInt), w.depth
	t.buildQS()
}

// majorityLabel is the argmax-with-ties-to-lower reduction of a leaf
// histogram, precomputed once per leaf by finish.
func majorityLabel(counts []int) int {
	best, bestC := 0, -1
	for lab, c := range counts {
		if c > bestC {
			best, bestC = lab, c
		}
	}
	return best
}

// ErrNotFitted reports prediction before training.
var ErrNotFitted = errors.New("tree: not fitted")

// New returns an untrained tree with the given configuration.
func New(cfg Config) *Tree {
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	return &Tree{cfg: cfg}
}

// Fit trains the tree on X (one sample per row) and labels y. Labels must
// be in [0, k) for some k >= 2 inferred from the data. A NaN feature value
// is an error: NaN has no place in a value order, so a tree grown over one
// would not be a function of its inputs. ±Inf is ordered and accepted.
//
// Fit is the builder an ensemble member trains with (see Presort), run on a
// presort of X of its own with every row counted once.
func (t *Tree) Fit(X *linalg.Matrix, y []int) error {
	p, err := newPresort(X, y, serial)
	if err != nil {
		return err
	}
	counts := make([]int32, p.n)
	for i := range counts {
		counts[i] = 1
	}
	return (&builder{p: p}).fit(t, counts, nil)
}

// Predict returns the majority class of the leaf reached by x.
func (t *Tree) Predict(x []float64) int {
	t.checkInput(x)
	return int(t.labels[t.leafOf(x)])
}

// checkInput panics unless the tree is fitted and x is as wide as the rows
// it was trained on — the precondition of the unchecked loads in the walks.
func (t *Tree) checkInput(x []float64) {
	if t.flat == nil {
		panic(ErrNotFitted)
	}
	if len(x) != t.nFeatures {
		panic(fmt.Sprintf("tree: input has %d features, trained on %d", len(x), t.nFeatures))
	}
}

// leafOf walks the slab from the root to x's leaf and returns the leaf's
// index; x must pass checkInput. The walk keeps the branchy child select on
// purpose: the speculative branch beats an arithmetic (CMOV-style) select
// here because prediction lets the next node load issue before the compare
// resolves, and real splits are far from 50/50 on most of the path.
func (t *Tree) leafOf(x []float64) int32 {
	// SliceData (not &x[0]) so a zero-feature degenerate tree — whose root
	// leaf never reads x — can still be walked.
	base := unsafe.Pointer(unsafe.SliceData(t.flat))
	xp := unsafe.Pointer(unsafe.SliceData(x))
	i := int32(0)
	for {
		nd := (*flatNode)(unsafe.Add(base, uintptr(i)*unsafe.Sizeof(flatNode{})))
		if nd.left == i {
			return i
		}
		next := nd.right
		if *(*float64)(unsafe.Add(xp, uintptr(nd.feature)*8)) <= nd.threshold {
			next = nd.left
		}
		i = next
	}
}

// PredictProba returns the class frequencies of the leaf reached by x.
func (t *Tree) PredictProba(x []float64) []float64 {
	t.checkInput(x)
	off := int(t.flat[t.leafOf(x)].leafOff)
	counts := t.leafSlab[off : off+t.nClasses]
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make([]float64, len(counts))
	if total == 0 {
		return out
	}
	for lab, c := range counts {
		out[lab] = float64(c) / float64(total)
	}
	return out
}

// PredictBatch writes the majority-class prediction for every row of X
// into out (length X.Rows()). It exists for batched ensemble inference:
// one tree's flat slab stays cache-hot across the whole batch instead of
// being evicted between samples by its ensemble neighbours. Predictions
// are identical to calling Predict per row.
//
// The walk is chosen by the row count — an input, never an option: batches
// of levelWalkRows (32) rows or more take the level walk (levelWalk),
// smaller ones the lockstep kernel in this function's body, in groups of
// eight with a per-row tail. The measurement behind 32, ns per row through
// 25 trees, distinct rows cycled so the branch predictor cannot learn
// them, p10 of 30 interleaved rounds, lockstep -> level walk:
//
//	rows   HPC forest (~2500 nodes,     DVFS forest (~55 nodes,
//	       mean path 13.9, longest 30)  mean path 5.0, longest 10)
//	   8   1144 -> 2496                 331 -> 877
//	  16   1072 -> 1118                 327 -> 435
//	  24   1039 ->  902                 327 -> 342
//	  31   1554 ->  842                 398 -> 305
//	  32   1052 ->  862                 328 -> 305
//	  48   1027 ->  772                 328 -> 271
//	  64   1067 ->  749                 334 -> 255
//	 256   1031 ->  653                 324 -> 231
//	1024    997 ->  679                 339 -> 254
//
// The level walk pays a fixed cost per level per call, which few rows
// cannot carry; the lockstep kernel steps every row flatDepth times, which
// a ragged tree makes mostly spinning. From 32 rows up the level walk
// loses on neither forest; at 24 — three full lockstep groups — it still
// loses on DVFS-sized trees, and 31 reads as it does only because seven of
// lockstep's rows fall to its per-row tail. 32 is also the size from which
// pkg/detector transposes a batch for the bitmask kernel, so one number
// splits "small" from "batch" everywhere. On DVFS-sized trees the
// level walk matters only where that kernel is unavailable (no vector
// tree step on the host, or TRUSTHMD_NOSIMD).
//
// Unsafe loads in both walks are confined to indices the representation
// already proves: node indices come from the slab itself (the slab writer
// writes only in-range children), features are < nFeatures (Fit draws them
// from the columns, GobDecode rejects any other; nFeatures is checked
// against X.Cols() below), and rows are rows of X's backing array.
func (t *Tree) PredictBatch(X *linalg.Matrix, out []int) {
	if t.flat == nil {
		panic(ErrNotFitted)
	}
	if len(out) != X.Rows() {
		panic(fmt.Sprintf("tree: predict batch out len %d for %d rows", len(out), X.Rows()))
	}
	if X.Rows() > 0 && X.Cols() != t.nFeatures {
		panic(fmt.Sprintf("tree: input has %d features, trained on %d", X.Cols(), t.nFeatures))
	}
	// Raw row-major storage avoids a bounds-checked Row call per sample.
	data, cols := X.Raw(), X.Cols()
	if len(out) >= levelWalkRows {
		t.levelWalk(data, cols, out)
		return
	}
	// The lockstep kernel: eight rows in lock-step for exactly flatDepth
	// iterations. Leaves self-loop, so there is no per-node leaf test and
	// no per-lane bookkeeping — rows that reach their leaf early spin in
	// place — and the child select is branch-free mask arithmetic. Eight
	// independent traversal chains keep the load and compare ports
	// saturated where a lone walk would stall on its serial
	// load→compare→load dependency (or, with branchy selects, on
	// mispredicted data-dependent branches). Rows past the last full group
	// take the per-row walk. It stays in this function's own body so that a
	// batch of two rows pays for one call per tree, not two (a call more
	// read 3-5 % slower at two and four rows on DVFS-sized trees).
	labels, depth := t.labels, t.flatDepth
	base := unsafe.Pointer(unsafe.SliceData(t.flat))
	const ndSize = unsafe.Sizeof(flatNode{})
	n := len(out)
	i := 0
	for ; i+8 <= n; i += 8 {
		x0 := unsafe.Add(unsafe.Pointer(unsafe.SliceData(data)), uintptr(i*cols)*8)
		x1 := unsafe.Add(x0, uintptr(cols)*8)
		x2 := unsafe.Add(x1, uintptr(cols)*8)
		x3 := unsafe.Add(x2, uintptr(cols)*8)
		x4 := unsafe.Add(x3, uintptr(cols)*8)
		x5 := unsafe.Add(x4, uintptr(cols)*8)
		x6 := unsafe.Add(x5, uintptr(cols)*8)
		x7 := unsafe.Add(x6, uintptr(cols)*8)
		var j0, j1, j2, j3, j4, j5, j6, j7 int32
		for step := 0; step < depth; step++ {
			n0 := (*flatNode)(unsafe.Add(base, uintptr(j0)*ndSize))
			n1 := (*flatNode)(unsafe.Add(base, uintptr(j1)*ndSize))
			n2 := (*flatNode)(unsafe.Add(base, uintptr(j2)*ndSize))
			n3 := (*flatNode)(unsafe.Add(base, uintptr(j3)*ndSize))
			n4 := (*flatNode)(unsafe.Add(base, uintptr(j4)*ndSize))
			n5 := (*flatNode)(unsafe.Add(base, uintptr(j5)*ndSize))
			n6 := (*flatNode)(unsafe.Add(base, uintptr(j6)*ndSize))
			n7 := (*flatNode)(unsafe.Add(base, uintptr(j7)*ndSize))
			var b0 int32
			if *(*float64)(unsafe.Add(x0, uintptr(n0.feature)*8)) <= n0.threshold {
				b0 = 1
			}
			var b1 int32
			if *(*float64)(unsafe.Add(x1, uintptr(n1.feature)*8)) <= n1.threshold {
				b1 = 1
			}
			var b2 int32
			if *(*float64)(unsafe.Add(x2, uintptr(n2.feature)*8)) <= n2.threshold {
				b2 = 1
			}
			var b3 int32
			if *(*float64)(unsafe.Add(x3, uintptr(n3.feature)*8)) <= n3.threshold {
				b3 = 1
			}
			var b4 int32
			if *(*float64)(unsafe.Add(x4, uintptr(n4.feature)*8)) <= n4.threshold {
				b4 = 1
			}
			var b5 int32
			if *(*float64)(unsafe.Add(x5, uintptr(n5.feature)*8)) <= n5.threshold {
				b5 = 1
			}
			var b6 int32
			if *(*float64)(unsafe.Add(x6, uintptr(n6.feature)*8)) <= n6.threshold {
				b6 = 1
			}
			var b7 int32
			if *(*float64)(unsafe.Add(x7, uintptr(n7.feature)*8)) <= n7.threshold {
				b7 = 1
			}
			j0 = n0.right + (n0.left-n0.right)&(-b0)
			j1 = n1.right + (n1.left-n1.right)&(-b1)
			j2 = n2.right + (n2.left-n2.right)&(-b2)
			j3 = n3.right + (n3.left-n3.right)&(-b3)
			j4 = n4.right + (n4.left-n4.right)&(-b4)
			j5 = n5.right + (n5.left-n5.right)&(-b5)
			j6 = n6.right + (n6.left-n6.right)&(-b6)
			j7 = n7.right + (n7.left-n7.right)&(-b7)
		}
		out[i+0] = int(labels[j0])
		out[i+1] = int(labels[j1])
		out[i+2] = int(labels[j2])
		out[i+3] = int(labels[j3])
		out[i+4] = int(labels[j4])
		out[i+5] = int(labels[j5])
		out[i+6] = int(labels[j6])
		out[i+7] = int(labels[j7])
	}
	for ; i < n; i++ {
		out[i] = int(labels[t.leafOf(data[i*cols:(i+1)*cols])])
	}
}

// levelWalkRows is the batch size from which PredictBatch takes the level
// walk; see the table there. It is also the row count at which
// pkg/detector starts transposing batches for the bitmask kernel.
const levelWalkRows = 32

// levelBlock is how many rows the level walk keeps in flight at once; its
// state (levelState, 3 KB) sits in L1 beside the internal half of the slab.
const levelBlock = 256

// levelState is the level walk's per-block state, a stack value of
// levelWalk. It is one struct so that levelStep addresses all three arrays
// and the leaf boundary off a single pointer.
type levelState struct {
	// The in-flight list, compacted to the front: entry k stands on
	// node[k] and belongs to row[k] of the block.
	node [levelBlock]uint32
	row  [levelBlock]uint32
	// last is, by row, the node the row most recently moved to; once the
	// row has left the list, its leaf.
	last      [levelBlock]uint32
	nInternal uint32
}

// levelWalk walks the rows of data (row-major, cols wide, len(out) rows)
// one tree level at a time. Each block of up to levelBlock rows starts as
// a list of in-flight entries, all at the root; one pass per level
// (levelStep) moves every entry to its child and keeps, in order, only
// those whose child is still an internal node. A row is finished on
// arrival at a leaf index — the leaf node itself is never loaded — so the
// steps executed are the sum of the rows' path lengths, not rows x longest
// path as in the lockstep kernel, and the nodes touched are the internal
// half of the slab.
func (t *Tree) levelWalk(data []float64, cols int, out []int) {
	labels := t.labels
	if t.nInternal == 0 {
		for i := range out {
			out[i] = int(labels[0])
		}
		return
	}
	st := levelState{nInternal: uint32(t.nInternal)}
	base := unsafe.Pointer(unsafe.SliceData(t.flat))
	stride := uintptr(cols) * 8
	for r0 := 0; r0 < len(out); r0 += levelBlock {
		blk := out[r0:min(r0+levelBlock, len(out))]
		xp := unsafe.Add(unsafe.Pointer(unsafe.SliceData(data)), uintptr(r0)*stride)
		for i := range blk {
			st.node[i], st.row[i] = 0, uint32(i)
		}
		for m := len(blk); m > 0; {
			m = levelStep(base, xp, stride, &st, m)
		}
		for i := range blk {
			blk[i] = int(labels[st.last[i]])
		}
	}
}

// levelStep advances the first m in-flight entries (m <= levelBlock) by
// one level and returns how many are still in flight. base is the slab,
// xp the block's first row, stride a row's size in bytes. The child is
// picked by address: right and left are adjacent int32s and b is 1 exactly
// when x <= threshold, so a NaN goes right as in every other walk. The
// moved entry is always stored at w, and w advances only when the child is
// internal (the sign bit of next-nInternal) — no branch on the data. w
// never passes the read position k, so the list compacts in place.
//
// The shape is measured, not incidental (ns per row through the 25 trees
// of the quarter-Table-I HPC forest, 1024-row batches, p10 of 30
// interleaved rounds; this form reads 689, the lockstep kernel 1032).
// Written inline in levelWalk's block loop the compiler keeps w on the
// stack and every entry waits on the store before it (924), hence a
// function of its own that must not be inlined, fed by one state pointer
// so that every value stays in a register. Indexing the arrays costs a
// mask or a bounds check per access (780), hence the loads and stores
// through st's address. node and row packed into one uint64 per entry cost
// a shift, a mask and an or per step to take apart and put together (+16 %
// when that was the form), hence two arrays. feature is loaded unsigned
// because sign-extending it takes three instructions here (732).
//
//go:noinline
func levelStep(base, xp unsafe.Pointer, stride uintptr, st *levelState, m int) int {
	sp := unsafe.Pointer(st)
	w := uintptr(0)
	for k := uintptr(0); k < uintptr(m); k++ {
		cur := *(*uint32)(unsafe.Add(sp, unsafe.Offsetof(st.node)+k*4))
		row := uintptr(*(*uint32)(unsafe.Add(sp, unsafe.Offsetof(st.row)+k*4)))
		nd := (*flatNode)(unsafe.Add(base, uintptr(cur)*unsafe.Sizeof(flatNode{})))
		b := uintptr(0)
		if *(*float64)(unsafe.Add(xp, row*stride+uintptr(uint32(nd.feature))*8)) <= nd.threshold {
			b = 1
		}
		next := *(*uint32)(unsafe.Add(unsafe.Pointer(nd), unsafe.Offsetof(nd.right)+4*b))
		*(*uint32)(unsafe.Add(sp, unsafe.Offsetof(st.last)+row*4)) = next
		*(*uint32)(unsafe.Add(sp, unsafe.Offsetof(st.node)+w*4)) = next
		*(*uint32)(unsafe.Add(sp, unsafe.Offsetof(st.row)+w*4)) = uint32(row)
		w += uintptr((next - st.nInternal) >> 31)
	}
	return int(w)
}

// Depth returns the depth of the trained tree (a stump is depth 0), or -1
// if the tree is unfitted.
func (t *Tree) Depth() int {
	if t.flat == nil {
		return -1
	}
	return t.flatDepth
}

// NodeCount returns the number of nodes materialised during the last Fit.
func (t *Tree) NodeCount() int { return t.nodes }

// NumClasses returns the number of classes inferred at fit time.
func (t *Tree) NumClasses() int { return t.nClasses }

// NumFeatures returns the input width the tree was trained on.
func (t *Tree) NumFeatures() int { return t.nFeatures }
