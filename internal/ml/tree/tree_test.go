package tree

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"trusthmd/pkg/linalg"
)

func xorData() (*linalg.Matrix, []int) {
	X := linalg.MustFromRows([][]float64{
		{0, 0}, {0, 1}, {1, 0}, {1, 1},
		{0.1, 0.1}, {0.1, 0.9}, {0.9, 0.1}, {0.9, 0.9},
	})
	y := []int{0, 1, 1, 0, 0, 1, 1, 0}
	return X, y
}

func TestFitPredictXOR(t *testing.T) {
	X, y := xorData()
	tr := New(Config{})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < X.Rows(); i++ {
		if got := tr.Predict(X.Row(i)); got != y[i] {
			t.Fatalf("sample %d: got %d, want %d", i, got, y[i])
		}
	}
	if tr.Depth() < 2 {
		t.Fatalf("XOR needs depth >=2, got %d", tr.Depth())
	}
}

func TestEntropyCriterion(t *testing.T) {
	X, y := xorData()
	tr := New(Config{Criterion: Entropy})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < X.Rows(); i++ {
		if got := tr.Predict(X.Row(i)); got != y[i] {
			t.Fatalf("sample %d: got %d, want %d", i, got, y[i])
		}
	}
}

func TestCriterionString(t *testing.T) {
	if Gini.String() != "gini" || Entropy.String() != "entropy" {
		t.Fatal("criterion strings")
	}
	if Criterion(9).String() == "" {
		t.Fatal("unknown criterion should still render")
	}
}

func TestMaxDepthLimitsTree(t *testing.T) {
	X, y := xorData()
	tr := New(Config{MaxDepth: 1})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if tr.Depth() > 1 {
		t.Fatalf("depth %d exceeds max 1", tr.Depth())
	}
}

func TestMinLeaf(t *testing.T) {
	X, y := xorData()
	tr := New(Config{MinLeaf: 4})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// With MinLeaf=4 on 8 samples, at most one split is possible.
	if tr.Depth() > 1 {
		t.Fatalf("depth %d with MinLeaf=4", tr.Depth())
	}
}

func TestPureNodeStopsEarly(t *testing.T) {
	X := linalg.MustFromRows([][]float64{{1}, {2}, {3}})
	y := []int{1, 1, 1}
	tr := New(Config{})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if tr.Depth() != 0 {
		t.Fatalf("pure data should make a stump, depth=%d", tr.Depth())
	}
	if tr.Predict([]float64{-100}) != 1 {
		t.Fatal("stump should predict the pure class everywhere")
	}
}

func TestConstantFeaturesNoSplit(t *testing.T) {
	X := linalg.MustFromRows([][]float64{{5, 5}, {5, 5}, {5, 5}, {5, 5}})
	y := []int{0, 1, 0, 1}
	tr := New(Config{})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if tr.Depth() != 0 {
		t.Fatalf("unsplittable data should make a stump, depth=%d", tr.Depth())
	}
}

func TestPredictProba(t *testing.T) {
	X := linalg.MustFromRows([][]float64{{5, 5}, {5, 5}, {5, 5}, {5, 5}})
	y := []int{0, 1, 0, 0}
	tr := New(Config{})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	p := tr.PredictProba([]float64{0, 0})
	if math.Abs(p[0]-0.75) > 1e-12 || math.Abs(p[1]-0.25) > 1e-12 {
		t.Fatalf("proba %v", p)
	}
}

func TestFitErrors(t *testing.T) {
	tr := New(Config{})
	if err := tr.Fit(linalg.New(0, 2), nil); err == nil {
		t.Fatal("expected empty error")
	}
	if err := tr.Fit(linalg.New(2, 2), []int{0}); err == nil {
		t.Fatal("expected length error")
	}
	if err := tr.Fit(linalg.New(2, 2), []int{0, -1}); err == nil {
		t.Fatal("expected label error")
	}
}

// TestFitRejectsNaN: a NaN has no position in a value order, so a tree
// grown over one would depend on the sort, not on the data. Fit names the
// first offender; infinities are ordered and still train.
func TestFitRejectsNaN(t *testing.T) {
	X := linalg.MustFromRows([][]float64{{0, 1, 2}, {3, 4, 5}, {6, math.NaN(), 8}, {math.NaN(), 1, 1}})
	err := New(Config{}).Fit(X, []int{0, 1, 0, 1})
	if err == nil || !strings.Contains(err.Error(), "row 2, column 1") {
		t.Fatalf("want an error naming row 2, column 1, got %v", err)
	}
	X.Set(2, 1, math.Inf(1))
	X.Set(3, 0, math.Inf(-1))
	if err := New(Config{}).Fit(X, []int{0, 1, 0, 1}); err != nil {
		t.Fatalf("infinite features must still train: %v", err)
	}
}

func TestPredictPanics(t *testing.T) {
	tr := New(Config{})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected unfitted panic")
			}
		}()
		tr.Predict([]float64{1})
	}()
	X, y := xorData()
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected dimension panic")
			}
		}()
		tr.Predict([]float64{1})
	}()
}

func TestMaxFeaturesSubsampling(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 200
	rows := make([][]float64, n)
	y := make([]int, n)
	for i := range rows {
		x0 := rng.NormFloat64()
		rows[i] = []float64{x0, rng.NormFloat64(), rng.NormFloat64()}
		if x0 > 0 {
			y[i] = 1
		}
	}
	X := linalg.MustFromRows(rows)
	tr := New(Config{MaxFeatures: 1, Seed: 7})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < n; i++ {
		if tr.Predict(X.Row(i)) == y[i] {
			correct++
		}
	}
	if frac := float64(correct) / float64(n); frac < 0.9 {
		t.Fatalf("train accuracy %v too low even with feature sampling", frac)
	}
}

func TestSeedDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := make([][]float64, 60)
	y := make([]int, 60)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if rows[i][2] > 0 {
			y[i] = 1
		}
	}
	X := linalg.MustFromRows(rows)
	a := New(Config{MaxFeatures: 2, Seed: 11})
	b := New(Config{MaxFeatures: 2, Seed: 11})
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.3, -0.2, 0.1, 0.9}
	for i := 0; i < 50; i++ {
		probe[0] = float64(i)*0.1 - 2
		if a.Predict(probe) != b.Predict(probe) {
			t.Fatal("same seed must give same tree")
		}
	}
}

// Property: a fully grown tree (MinLeaf=1, no depth cap) achieves perfect
// training accuracy whenever no two identical inputs carry different labels.
func TestPerfectTrainFitProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		rows := make([][]float64, n)
		y := make([]int, n)
		for i := range rows {
			rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			y[i] = rng.Intn(2)
		}
		X := linalg.MustFromRows(rows)
		tr := New(Config{})
		if err := tr.Fit(X, y); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if tr.Predict(X.Row(i)) != y[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: probabilities are a valid distribution.
func TestProbaDistributionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(30)
		rows := make([][]float64, n)
		y := make([]int, n)
		for i := range rows {
			rows[i] = []float64{rng.NormFloat64()}
			y[i] = rng.Intn(2)
		}
		X := linalg.MustFromRows(rows)
		tr := New(Config{MaxDepth: 3})
		if err := tr.Fit(X, y); err != nil {
			return false
		}
		p := tr.PredictProba([]float64{rng.NormFloat64()})
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeCountAndNumClasses(t *testing.T) {
	X, y := xorData()
	tr := New(Config{})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if tr.NodeCount() < 3 {
		t.Fatalf("node count %d", tr.NodeCount())
	}
	if tr.NumClasses() != 2 {
		t.Fatalf("classes %d", tr.NumClasses())
	}
	if New(Config{}).Depth() != -1 {
		t.Fatal("unfitted depth should be -1")
	}
}

// refBuilder is the split search Fit used before the presorted-column
// builder, kept verbatim as the oracle: every node sorts its own samples
// once per candidate feature with sort.Slice over Matrix.At. It grows a
// pointer tree of its own and encodes it itself, so the bytes Fit is held
// to never pass through the slab writer.
type refBuilder struct {
	t   *Tree
	X   *linalg.Matrix
	y   []int
	rng *rand.Rand
}

// refNode is a node of the reference builder's tree; a leaf has no
// children and carries its class histogram.
type refNode struct {
	feature   int
	threshold float64
	left      *refNode
	right     *refNode
	counts    []int
}

// predict walks x down to its leaf and returns the leaf's majority class.
func (n *refNode) predict(x []float64) int {
	for n.left != nil {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return majorityLabel(n.counts)
}

// fitReference trains a tree with refBuilder and returns its root and its
// gob encoding, the wire form written out node by node from the pointers.
// X must be NaN-free.
func fitReference(cfg Config, X *linalg.Matrix, y []int) (*refNode, []byte, error) {
	t := New(cfg)
	maxLabel := 0
	for _, lab := range y {
		if lab > maxLabel {
			maxLabel = lab
		}
	}
	t.nClasses = maxLabel + 1
	if t.nClasses < 2 {
		t.nClasses = 2
	}
	t.nFeatures = X.Cols()
	if t.cfg.MaxFeatures < 0 {
		t.cfg.MaxFeatures = int(math.Round(math.Sqrt(float64(X.Cols()))))
		if t.cfg.MaxFeatures < 1 {
			t.cfg.MaxFeatures = 1
		}
	}
	t.nodes = 0

	idx := make([]int, X.Rows())
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(t.cfg.Seed))
	b := &refBuilder{t: t, X: X, y: y, rng: rng}
	root := b.build(idx, 0)

	g := treeGob{Cfg: t.cfg, NFeatures: t.nFeatures, NClasses: t.nClasses, NodeTally: t.nodes}
	var flatten func(n *refNode) int
	flatten = func(n *refNode) int {
		at := len(g.Nodes)
		g.Nodes = append(g.Nodes, nodeGob{Feature: n.feature, Threshold: n.threshold, Left: -1, Right: -1, Counts: n.counts})
		if n.left != nil {
			left := flatten(n.left)
			right := flatten(n.right)
			g.Nodes[at].Left, g.Nodes[at].Right = left, right
		}
		return at
	}
	flatten(root)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		return nil, nil, err
	}
	return root, buf.Bytes(), nil
}

func (b *refBuilder) classCounts(idx []int) []int {
	counts := make([]int, b.t.nClasses)
	for _, i := range idx {
		counts[b.y[i]]++
	}
	return counts
}

func (b *refBuilder) build(idx []int, depth int) *refNode {
	b.t.nodes++
	counts := b.classCounts(idx)

	pure := false
	for _, c := range counts {
		if c == len(idx) {
			pure = true
			break
		}
	}
	if pure || len(idx) < 2*b.t.cfg.MinLeaf ||
		(b.t.cfg.MaxDepth > 0 && depth >= b.t.cfg.MaxDepth) {
		return &refNode{counts: counts}
	}

	feat, thr, ok := b.bestSplit(idx, counts)
	if !ok {
		return &refNode{counts: counts}
	}

	var leftIdx, rightIdx []int
	for _, i := range idx {
		if b.X.At(i, feat) <= thr {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		return &refNode{counts: counts}
	}
	return &refNode{
		feature:   feat,
		threshold: thr,
		left:      b.build(leftIdx, depth+1),
		right:     b.build(rightIdx, depth+1),
	}
}

func (b *refBuilder) bestSplit(idx []int, total []int) (feature int, threshold float64, ok bool) {
	features := b.candidateFeatures()
	n := float64(len(idx))
	parentImp := impurity(total, len(idx), b.t.cfg.Criterion)

	bestGain := math.Inf(-1)
	sorted := make([]int, len(idx))

	for _, f := range features {
		copy(sorted, idx)
		sort.Slice(sorted, func(a, c int) bool { return b.X.At(sorted[a], f) < b.X.At(sorted[c], f) })

		leftCounts := make([]int, b.t.nClasses)
		rightCounts := append([]int(nil), total...)

		for pos := 0; pos < len(sorted)-1; pos++ {
			lab := b.y[sorted[pos]]
			leftCounts[lab]++
			rightCounts[lab]--

			v, next := b.X.At(sorted[pos], f), b.X.At(sorted[pos+1], f)
			if v == next {
				continue // cannot split between equal values
			}
			nl, nr := pos+1, len(sorted)-pos-1
			if nl < b.t.cfg.MinLeaf || nr < b.t.cfg.MinLeaf {
				continue
			}
			child := (float64(nl)*impurity(leftCounts, nl, b.t.cfg.Criterion) +
				float64(nr)*impurity(rightCounts, nr, b.t.cfg.Criterion)) / n
			if gain := parentImp - child; gain > bestGain {
				bestGain = gain
				feature = f
				threshold = v + (next-v)/2
				ok = true
			}
		}
	}
	return feature, threshold, ok
}

func (b *refBuilder) candidateFeatures() []int {
	k := b.t.cfg.MaxFeatures
	if k <= 0 || k >= b.t.nFeatures {
		all := make([]int, b.t.nFeatures)
		for i := range all {
			all[i] = i
		}
		return all
	}
	return b.rng.Perm(b.t.nFeatures)[:k]
}

// identityData draws one training set of the named shape: the value
// patterns on which a presorted builder could part ways with a per-node
// sort — ties, repeated rows, columns with nothing to split, zeros of both
// signs, infinities, and sets too small to split.
func identityData(rng *rand.Rand, kind string, classes int) (*linalg.Matrix, []int) {
	n, d := 240, 7
	switch kind {
	case "n=1", "n=2", "n=3":
		n = int(kind[2] - '0')
	}
	X := linalg.New(n, d)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			v := rng.NormFloat64()
			switch kind {
			case "12-level":
				v = float64(rng.Intn(12))
			case "signed-zero":
				v = []float64{math.Copysign(0, -1), 0, -1, 1}[rng.Intn(4)]
			case "infinite":
				if rng.Intn(8) == 0 {
					v = math.Inf(rng.Intn(2)*2 - 1)
				}
			}
			X.Set(i, j, v)
		}
		// Labels follow two features loosely, so trees grow deep.
		y[i] = int(math.Abs(X.At(i, 0)+X.At(i, 1))*1.5+rng.Float64()) % classes
		if math.IsInf(X.At(i, 0)+X.At(i, 1), 0) || math.IsNaN(X.At(i, 0)+X.At(i, 1)) {
			y[i] = rng.Intn(classes)
		}
	}
	switch kind {
	case "duplicated":
		// A third of the rows repeat earlier ones.
		for i := 2 * n / 3; i < n; i++ {
			src := rng.Intn(2 * n / 3)
			copy(X.Row(i), X.Row(src))
			y[i] = y[src]
		}
	case "bootstrap":
		// A with-replacement replicate in draw order, as
		// ensemble.ResampleN draws it, so copies are scattered and about a
		// third of the rows repeat another. Then a few drawn vectors come
		// again under another label (one vector, two groups), and a few
		// rows gain a twin whose zeros carry the other sign (equal values,
		// different bits: two groups that no split may separate).
		src, srcY := X.Clone(), append([]int(nil), y...)
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			copy(X.Row(i), src.Row(j))
			y[i] = srcY[j]
		}
		for k := 0; k < 8; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			copy(X.Row(b), X.Row(a))
			y[b] = (y[a] + 1 + rng.Intn(classes-1)) % classes
		}
		for k := 0; k < 6; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			for j := 2; j < d; j += 2 {
				X.Set(a, j, 0)
			}
			copy(X.Row(b), X.Row(a))
			y[b] = y[a]
			for j := 2; j < d; j += 2 {
				X.Set(b, j, math.Copysign(0, -1))
			}
		}
	case "constant-column":
		for i := 0; i < n; i++ {
			X.Set(i, 0, 3.5)
			X.Set(i, 4, 0)
		}
	}
	return X, y
}

// TestFitMatchesReference is the byte-identity contract of the presorted
// builder: over criterion x MaxFeatures x MinLeaf x MaxDepth x class count
// x data shape, Fit's gob encoding equals the per-node-sort reference's,
// and so do batch predictions on fresh rows.
func TestFitMatchesReference(t *testing.T) {
	kinds := []string{"continuous", "12-level", "duplicated", "bootstrap", "constant-column",
		"signed-zero", "infinite", "n=1", "n=2", "n=3"}
	seed := int64(0)
	for _, kind := range kinds {
		for _, classes := range []int{2, 3, 4} {
			rng := rand.New(rand.NewSource(int64(len(kind)*10 + classes)))
			X, y := identityData(rng, kind, classes)
			probe, _ := identityData(rng, "continuous", classes)
			for _, crit := range []Criterion{Gini, Entropy} {
				for _, maxFeatures := range []int{0, -1, 3} {
					for _, minLeaf := range []int{1, 3} {
						for _, maxDepth := range []int{0, 4} {
							seed++
							cfg := Config{MaxDepth: maxDepth, MinLeaf: minLeaf,
								MaxFeatures: maxFeatures, Criterion: crit, Seed: seed}
							name := fmt.Sprintf("%s/k=%d/%+v", kind, classes, cfg)
							got, want, err := fitBoth(cfg, X, y)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							gotPred := make([]int, probe.Rows())
							got.PredictBatch(probe, gotPred)
							for i := range gotPred {
								if w := want.predict(probe.Row(i)); gotPred[i] != w {
									t.Fatalf("%s: probe row %d predicted %d, reference %d", name, i, gotPred[i], w)
								}
							}
						}
					}
				}
			}
		}
	}
}

// fitBoth trains cfg on (X, y) with Fit and with the reference builder and
// fails unless the two gob encodings are equal.
func fitBoth(cfg Config, X *linalg.Matrix, y []int) (got *Tree, want *refNode, err error) {
	got = New(cfg)
	if err := got.Fit(X, y); err != nil {
		return nil, nil, err
	}
	want, wantGob, err := fitReference(cfg, X, y)
	if err != nil {
		return nil, nil, err
	}
	gotGob, err := got.GobEncode()
	if err != nil {
		return nil, nil, err
	}
	if !bytes.Equal(gotGob, wantGob) {
		return nil, nil, fmt.Errorf("fitted tree differs from the reference (%d vs %d bytes)",
			len(gotGob), len(wantGob))
	}
	return got, want, nil
}

// fuzzValues is the alphabet FuzzFitMatchesReference draws feature values
// from: few enough values that rows repeat and ties are everywhere, zeros
// of both signs and both infinities.
var fuzzValues = [...]float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.5, math.Inf(1)}

// fuzzFitInput maps fuzz bytes to a configuration and a training set. Byte
// 0 holds the criterion (bit 0) and the class count k in [2, 4], byte 1
// MaxFeatures in [-1, 4], byte 2 MinLeaf in [1, 3] and MaxDepth in [0, 5],
// byte 3 the seed, byte 4 the width d in [1, 4] and byte 5 the row count n
// in [1, 64]; then come n*d value bytes, row-major, indexing fuzzValues,
// and n label bytes, each taken mod k. Bytes past the end read as 0.
func fuzzFitInput(data []byte) (Config, *linalg.Matrix, []int) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	k := 2 + (at(0)>>1)%3
	cfg := Config{
		Criterion:   Criterion(at(0) & 1),
		MaxFeatures: at(1)%6 - 1,
		MinLeaf:     1 + at(2)%3,
		MaxDepth:    (at(2) >> 2) % 6,
		Seed:        int64(at(3)),
	}
	d, n := 1+at(4)%4, 1+at(5)%64
	X := linalg.New(n, d)
	y := make([]int, n)
	for i := 0; i < n*d; i++ {
		X.Set(i/d, i%d, fuzzValues[at(6+i)%len(fuzzValues)])
	}
	for i := range y {
		y[i] = at(6+n*d+i) % k
	}
	return cfg, X, y
}

// fuzzSeed writes the first rows and columns of an identityData set as
// fuzzFitInput bytes, each value replaced by the alphabet entry of its
// sign class, so the seed keeps the shape — repeated rows, a constant
// column, signed zeros, infinities, a set too small to split.
func fuzzSeed(rng *rand.Rand, kind string, classes int) []byte {
	X, y := identityData(rng, kind, classes)
	n, d := min(X.Rows(), 64), min(X.Cols(), 4)
	data := []byte{byte((classes - 2) << 1), byte(rng.Intn(6)), byte(rng.Intn(256)), byte(rng.Intn(256)),
		byte(d - 1), byte(n - 1)}
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			v := X.At(i, j)
			var c byte
			switch {
			case math.IsInf(v, -1):
				c = 0
			case math.IsInf(v, 1):
				c = 5
			case v == 0 && math.Signbit(v):
				c = 2
			case v == 0:
				c = 3
			case v < 0:
				c = 1
			default:
				c = 4
			}
			data = append(data, c)
		}
	}
	for _, lab := range y[:n] {
		data = append(data, byte(lab))
	}
	return data
}

// FuzzFitMatchesReference is TestFitMatchesReference over inputs nobody
// wrote down: a small matrix from a six-value alphabet, so rows repeat
// under one label and under several, values tie, and zeros differ only in
// sign, must train to the reference builder's gob bytes.
func FuzzFitMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range []string{"continuous", "12-level", "duplicated", "bootstrap", "constant-column",
		"signed-zero", "infinite", "n=1", "n=2", "n=3"} {
		for _, classes := range []int{2, 3} {
			f.Add(fuzzSeed(rng, kind, classes))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, X, y := fuzzFitInput(data)
		if _, _, err := fitBoth(cfg, X, y); err != nil {
			t.Fatalf("%+v on %v labels %v: %v", cfg, X.Raw(), y, err)
		}
	})
}
