package tree

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"trusthmd/pkg/linalg"
)

// randomFitted fits a tree with randomized shape controls on randomized
// data, returning the tree and a pool of probe inputs (training rows plus
// perturbed variants, so probes land both on and between split
// thresholds).
func randomFitted(t testing.TB, rng *rand.Rand) (*Tree, [][]float64) {
	t.Helper()
	n := 20 + rng.Intn(200)
	d := 1 + rng.Intn(12)
	classes := 2 + rng.Intn(3)
	X := linalg.New(n, d)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			// Coarse quantization forces duplicated feature values, the
			// edge case split scanning and traversal must agree on.
			X.Set(i, j, float64(rng.Intn(9))/2)
		}
		y[i] = rng.Intn(classes)
	}
	cfg := Config{
		MaxDepth:    rng.Intn(8), // 0 = unlimited
		MinLeaf:     1 + rng.Intn(3),
		MaxFeatures: rng.Intn(d+1) - 1, // -1 = sqrt(d), 0 = all
		Criterion:   Criterion(rng.Intn(2)),
		Seed:        rng.Int63(),
	}
	tr := New(cfg)
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	probes := make([][]float64, 0, 2*n)
	for i := 0; i < n; i++ {
		probes = append(probes, X.RowCopy(i))
		p := X.RowCopy(i)
		for j := range p {
			p[j] += (rng.Float64() - 0.5) * 0.7
		}
		probes = append(probes, p)
	}
	return tr, probes
}

// wireLeaf is the reference walk every slab walk is held to: it follows x
// down the wire-form nodes of a tree gob by their child indices and returns
// the class histogram of the leaf it reaches. It reads nothing the slab
// writer wrote.
func wireLeaf(nodes []nodeGob, x []float64) []int {
	i := 0
	for nodes[i].Left >= 0 {
		if nd := &nodes[i]; x[nd.Feature] <= nd.Threshold {
			i = nd.Left
		} else {
			i = nd.Right
		}
	}
	return nodes[i].Counts
}

// wireNodes decodes the tree gob b as plain gob and returns its nodes.
func wireNodes(t testing.TB, b []byte) []nodeGob {
	t.Helper()
	var g treeGob
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&g); err != nil {
		t.Fatal(err)
	}
	return g.Nodes
}

// encodedNodes returns the wire-form nodes GobEncode writes for tr.
func encodedNodes(t testing.TB, tr *Tree) []nodeGob {
	t.Helper()
	b, err := tr.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	return wireNodes(t, b)
}

// TestFlatMatchesPointerWalk is the slab's property test: on randomized
// fitted trees, every slab walk (Predict, PredictProba, PredictBatch) must
// reach, for every probe, the leaf the walk over the tree's wire-form nodes
// reaches — same label, same histogram, same frequencies.
func TestFlatMatchesPointerWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 30; round++ {
		tr, probes := randomFitted(t, rng)
		if tr.flat == nil {
			t.Fatalf("round %d: fitted tree has no slab", round)
		}
		nodes := encodedNodes(t, tr)
		X := linalg.MustFromRows(probes)
		batch := make([]int, len(probes))
		tr.PredictBatch(X, batch)
		for pi, x := range probes {
			wantCounts := wireLeaf(nodes, x)
			wantLabel := majorityLabel(wantCounts)
			if got := tr.Predict(x); got != wantLabel {
				t.Fatalf("round %d probe %d: flat Predict %d, wire walk %d", round, pi, got, wantLabel)
			}
			if batch[pi] != wantLabel {
				t.Fatalf("round %d probe %d: PredictBatch %d, wire walk %d", round, pi, batch[pi], wantLabel)
			}
			off := int(tr.flat[tr.leafOf(x)].leafOff)
			gotCounts := tr.leafSlab[off : off+tr.nClasses]
			proba := tr.PredictProba(x)
			total := 0
			for _, c := range wantCounts {
				total += c
			}
			if len(gotCounts) != len(wantCounts) || len(proba) != len(wantCounts) {
				t.Fatalf("round %d probe %d: flat counts %v, wire counts %v", round, pi, gotCounts, wantCounts)
			}
			for c := range wantCounts {
				if gotCounts[c] != wantCounts[c] || proba[c] != float64(wantCounts[c])/float64(total) {
					t.Fatalf("round %d probe %d: flat counts %v proba %v, wire counts %v", round, pi, gotCounts, proba, wantCounts)
				}
			}
		}
	}
}

// TestFlatRebuiltAfterGobDecode asserts that a decoded tree serves from a
// slab of its own the moment it is decoded, with bit-identical predictions.
func TestFlatRebuiltAfterGobDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr, probes := randomFitted(t, rng)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(tr); err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if back.flat == nil {
		t.Fatal("decoded tree has no slab")
	}
	if len(back.flat) != len(tr.flat) {
		t.Fatalf("decoded slab has %d nodes, original %d", len(back.flat), len(tr.flat))
	}
	for pi, x := range probes {
		if got, want := back.Predict(x), tr.Predict(x); got != want {
			t.Fatalf("probe %d: decoded Predict %d, original %d", pi, got, want)
		}
		gp, wp := back.PredictProba(x), tr.PredictProba(x)
		for c := range wp {
			if gp[c] != wp[c] {
				t.Fatalf("probe %d: decoded proba %v, original %v", pi, gp, wp)
			}
		}
	}
}

// deepTree fits an unlimited-depth tree on labels that are mostly noise, the
// shape of the paper's HPC members: far past the bitmask kernel's 64
// leaves, and ragged — the longest path several times the typical one.
func deepTree(t *testing.T, rng *rand.Rand, rows, cols int) *Tree {
	t.Helper()
	tr := fitRandomTree(t, rng, rows, cols, Config{MaxFeatures: -1, Seed: rng.Int63()})
	if leaves := len(tr.flat) - tr.nInternal; leaves <= qsMaxLeaves || tr.Depth() < 20 || tr.qs != nil {
		t.Fatalf("deep tree came out with %d leaves, depth %d, qs %v: not the shape under test", leaves, tr.Depth(), tr.qs != nil)
	}
	return tr
}

// walkProbes returns n rows for tr: random values, with NaN, +Inf, -Inf and
// -0 sprinkled in and, on some rows, one feature set exactly to the
// threshold of a node that splits on it (x <= threshold goes left).
func walkProbes(rng *rand.Rand, tr *Tree, n int) *linalg.Matrix {
	X := linalg.New(n, tr.nFeatures)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for i := 0; i < n; i++ {
		row := X.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64() * 1.5
		}
		if rng.Intn(4) == 0 {
			row[rng.Intn(len(row))] = specials[rng.Intn(len(specials))]
		}
		if tr.nInternal > 0 && rng.Intn(2) == 0 {
			nd := tr.flat[rng.Intn(tr.nInternal)]
			row[nd.feature] = nd.threshold
		}
	}
	return X
}

// TestLevelWalkMatchesReference pins every slab walk to the walk over the
// tree's wire-form nodes: over small random trees, deep ragged ones and a
// tree that is one leaf, and over batch sizes on both sides of every kernel
// boundary (the 8-row lockstep group, the 32-row walk choice, the 256-row
// level-walk block), PredictBatch, per-row Predict and the reference agree
// on every row; and
// at 31 and 32 rows the lockstep kernel and the level walk, each run on
// the same rows, agree with each other.
func TestLevelWalkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var trees []*Tree
	for i := 0; i < 6; i++ {
		tr, _ := randomFitted(t, rng)
		trees = append(trees, tr)
	}
	trees = append(trees, deepTree(t, rng, 2500, 6), deepTree(t, rng, 4000, 9))
	leaf := New(Config{})
	if err := leaf.Fit(linalg.New(4, 3), []int{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if leaf.nInternal != 0 {
		t.Fatalf("pure training set grew %d internal nodes", leaf.nInternal)
	}
	trees = append(trees, leaf)

	for ti, tr := range trees {
		nodes := encodedNodes(t, tr)
		for _, n := range []int{0, 1, 7, 8, 31, 32, 33, 255, 256, 257, 1025} {
			X := walkProbes(rng, tr, n)
			got := make([]int, n)
			tr.PredictBatch(X, got)
			for i := 0; i < n; i++ {
				x := X.Row(i)
				want := majorityLabel(wireLeaf(nodes, x))
				if got[i] != want {
					t.Fatalf("tree %d, %d rows, row %d %v: PredictBatch %d, wire walk %d", ti, n, i, x, got[i], want)
				}
				if p := tr.Predict(x); p != want {
					t.Fatalf("tree %d, %d rows, row %d %v: Predict %d, wire walk %d", ti, n, i, x, p, want)
				}
			}
			if n == 31 || n == 32 {
				// Both kernels on the same rows: the level walk called
				// directly, the lockstep kernel through batches of 31 (three
				// groups and its tail) and, for the 32nd row, of one.
				lock, level := make([]int, n), make([]int, n)
				tr.levelWalk(X.Raw(), X.Cols(), level)
				for r0 := 0; r0 < n; r0 += 31 {
					r1 := min(r0+31, n)
					part := linalg.New(r1-r0, X.Cols())
					copy(part.Raw(), X.Raw()[r0*X.Cols():r1*X.Cols()])
					tr.PredictBatch(part, lock[r0:r1])
				}
				for i := range lock {
					if lock[i] != level[i] {
						t.Fatalf("tree %d, %d rows, row %d: lockstep %d, level walk %d", ti, n, i, lock[i], level[i])
					}
				}
			}
		}
	}
}

// TestSlabLayout checks the layout the level walk depends on: internal
// nodes first, in preorder among themselves; leaves after, self-looping,
// in the order of their histograms in leafSlab.
func TestSlabLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var trees []*Tree
	for i := 0; i < 10; i++ {
		tr, _ := randomFitted(t, rng)
		trees = append(trees, tr)
	}
	trees = append(trees, deepTree(t, rng, 2500, 6))
	for ti, tr := range trees {
		nInt, n := int32(tr.nInternal), int32(len(tr.flat))
		if n != 2*nInt+1 || len(tr.labels) != int(n) || len(tr.leafSlab) != int(nInt+1)*tr.nClasses {
			t.Fatalf("tree %d: %d nodes, %d labels, %d histogram cells for %d internal nodes", ti, n, len(tr.labels), len(tr.leafSlab), nInt)
		}
		var internals, leaves []int32 // preorder from the root, by kind
		var visit func(i int32)
		visit = func(i int32) {
			nd := tr.flat[i]
			if i >= nInt {
				leaves = append(leaves, i)
				if nd.left != i || nd.right != i || !math.IsInf(nd.threshold, 1) || nd.feature != 0 {
					t.Fatalf("tree %d: leaf %d does not self-loop on +Inf: %+v", ti, i, nd)
				}
				if want := int32(len(leaves)-1) * int32(tr.nClasses); nd.leafOff != want {
					t.Fatalf("tree %d: leaf %d has leafOff %d, want %d (leaf order)", ti, i, nd.leafOff, want)
				}
				if tr.labels[i] != int32(majorityLabel(tr.leafSlab[nd.leafOff:int(nd.leafOff)+tr.nClasses])) {
					t.Fatalf("tree %d: leaf %d label %d does not match its histogram", ti, i, tr.labels[i])
				}
				return
			}
			internals = append(internals, i)
			if nd.left < nInt && nd.left != i+1 {
				t.Fatalf("tree %d: internal left child of %d is %d, want %d", ti, i, nd.left, i+1)
			}
			if nd.left <= i || nd.right <= i || nd.left >= n || nd.right >= n || nd.left == nd.right {
				t.Fatalf("tree %d: node %d has children %d/%d of %d", ti, i, nd.left, nd.right, n)
			}
			if nd.leafOff != -1 || tr.labels[i] != -1 {
				t.Fatalf("tree %d: internal node %d carries leaf payload: %+v label %d", ti, i, nd, tr.labels[i])
			}
			visit(nd.left)
			visit(nd.right)
		}
		visit(0)
		for k, i := range internals {
			if i != int32(k) {
				t.Fatalf("tree %d: %d-th internal node in preorder sits at %d", ti, k, i)
			}
		}
		for k, i := range leaves {
			if i != nInt+int32(k) {
				t.Fatalf("tree %d: %d-th leaf in preorder sits at %d, want %d", ti, k, i, nInt+int32(k))
			}
		}
		if len(internals) != int(nInt) || len(leaves) != int(nInt)+1 {
			t.Fatalf("tree %d: reached %d internal nodes and %d leaves of %d/%d", ti, len(internals), len(leaves), nInt, nInt+1)
		}
	}
}

func TestAllocsPredictBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr, probes := randomFitted(t, rng)
	deep := deepTree(t, rng, 2500, 6)
	for _, c := range []struct {
		name string
		tr   *Tree
		X    *linalg.Matrix
	}{
		{"small tree", tr, linalg.MustFromRows(probes)},
		{"lockstep, 31 rows", deep, walkProbes(rng, deep, 31)},
		{"level walk, 300 rows", deep, walkProbes(rng, deep, 300)},
	} {
		out := make([]int, c.X.Rows())
		allocs := testing.AllocsPerRun(20, func() {
			c.tr.PredictBatch(c.X, out)
		})
		if allocs > 0 {
			t.Fatalf("%s: PredictBatch allocates %.1f times per batch, want 0", c.name, allocs)
		}
	}
}
