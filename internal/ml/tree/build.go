package tree

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"trusthmd/pkg/linalg"
	"trusthmd/pkg/model"
)

// presort is a training set sorted once, feature by feature, and read by
// every tree grown from it (Fit's one tree, or an ensemble's members; see
// Presort). It is never written after newPresort returns.
//
// Each value of a feature has a dense-rank key: the distinct values of the
// feature, in ascending order, are keys 0, 1, 2, ..., so equal values share
// a key and -0 shares one with +0. A builder compares, sorts and
// partitions keys and reads a value only to place a threshold or to test
// a row against one.
type presort struct {
	n    int   // rows
	y    []int // labels, by row
	cols []column
}

// column is one feature of a presort.
type column struct {
	keys  []uint32  // by row: the row's key
	vals  []float64 // by key: the value behind it
	order []entry   // every row whose value is not NaN, ascending by key
	// nan lists, ascending, the rows whose value is NaN: they have no key,
	// and a tree that counts one fails.
	nan []int32
	// passes is the number of byte-wide radix passes that order any set
	// of the keys: ⌈bits(len(vals)-1)/8⌉.
	passes int
}

// serial is the parallel argument of newPresort that runs every task on
// the caller's goroutine.
func serial(n int, task func(i int)) {
	for i := range n {
		task(i)
	}
}

// newPresort sorts the features of X (labels y) into a presort, one task
// per feature through parallel.
func newPresort(X *linalg.Matrix, y []int, parallel func(n int, task func(i int))) (*presort, error) {
	n, d := X.Rows(), X.Cols()
	if n == 0 {
		return nil, errors.New("tree: empty training set")
	}
	if n != len(y) {
		return nil, fmt.Errorf("tree: %d rows but %d labels", n, len(y))
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("tree: %d rows exceed the builder's 32-bit indices", n)
	}
	p := &presort{n: n, y: y, cols: make([]column, d)}
	raw := X.Raw()
	parallel(d, func(f int) { p.cols[f] = sortColumn(raw, n, d, f) })
	return p, nil
}

// keyed is a value's order-preserving key (sortKey) beside its row, the
// element presorting sorts.
type keyed struct {
	k   uint64
	row int32
}

// sortColumn presorts feature f of raw (row-major, n rows of d).
func sortColumn(raw []float64, n, d, f int) column {
	a := make([]keyed, 0, n)
	var nan []int32
	for r := range n {
		v := raw[r*d+f]
		if math.IsNaN(v) {
			nan = append(nan, int32(r))
			continue
		}
		a = append(a, keyed{k: sortKey(v), row: int32(r)})
	}
	radixSort64(a, make([]keyed, len(a)))

	keys, order := make([]uint32, n), make([]entry, len(a))
	var vals []float64
	for i, e := range a {
		// Numeric comparison, so -0 and +0 get one key; which of the two
		// stands for it does not matter (see builder).
		if v := raw[int(e.row)*d+f]; i == 0 || v != vals[len(vals)-1] {
			vals = append(vals, v)
		}
		key := uint32(len(vals) - 1)
		keys[e.row] = key
		order[i] = entry{key: key, row: e.row}
	}
	c := column{keys: keys, vals: vals, order: order, nan: nan}
	if len(vals) > 1 {
		c.passes = (bits.Len32(uint32(len(vals)-1)) + 7) / 8
	}
	return c
}

// sortKey maps a float64 to a uint64 whose unsigned order is the float's
// numeric order (NaN excluded; -0 sorts just below +0): negative values
// have every bit flipped, the rest only the sign bit.
func sortKey(v float64) uint64 {
	bits := math.Float64bits(v)
	return bits ^ (uint64(int64(bits)>>63) | 1<<63)
}

// radixSort64 orders a by key, ascending, using tmp (same length) as
// scratch: a byte-wide least-significant-digit radix sort. One read builds
// all eight histograms, and a byte on which every key agrees — the high
// exponent bytes of any real feature, the low mantissa bytes of
// integer-valued ones — costs no pass.
func radixSort64(a, tmp []keyed) {
	if len(a) < 2 {
		return
	}
	var hist [8][256]int32
	for _, e := range a {
		k := e.k
		hist[0][byte(k)]++
		hist[1][byte(k>>8)]++
		hist[2][byte(k>>16)]++
		hist[3][byte(k>>24)]++
		hist[4][byte(k>>32)]++
		hist[5][byte(k>>40)]++
		hist[6][byte(k>>48)]++
		hist[7][byte(k>>56)]++
	}
	src, dst := a, tmp
	for p := range hist {
		h := &hist[p]
		shift := uint(p) * 8
		if int(h[byte(src[0].k>>shift)]) == len(src) {
			continue
		}
		sum := int32(0)
		for i, c := range h {
			h[i] = sum
			sum += c
		}
		for _, e := range src {
			b := byte(e.k >> shift)
			dst[h[b]] = e
			h[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// Presort implements model.Presorter: it sorts the features of (X, y)
// once, one task per feature through parallel, and returns the constructor
// of fit functions that grow trees from that presort. Each fit function
// owns one builder's scratch and reuses it for every tree it grows, so one
// goroutine calls it at a time; the presort itself is only read. The
// receiver is not used.
func (t *Tree) Presort(X *linalg.Matrix, y []int, parallel func(n int, task func(i int))) (func() func(model.Classifier, []int32, []int) error, error) {
	p, err := newPresort(X, y, parallel)
	if err != nil {
		return nil, err
	}
	return func() func(model.Classifier, []int32, []int) error {
		b := &builder{p: p}
		return func(member model.Classifier, counts []int32, cols []int) error {
			t, ok := member.(*Tree)
			if !ok {
				return fmt.Errorf("tree: cannot grow a %T from a tree presort", member)
			}
			return b.fit(t, counts, cols)
		}
	}, nil
}

// entry is one row as one feature sees it: the row's key in the feature
// and the row. Labels and counts are read by row (builder.info) and values
// by key, which keeps the entry at 8 bytes.
type entry struct {
	key uint32
	row int32
}

// rowInfo is a row's count in the tree being grown — its weight, 0 for a
// row the tree does not see — and its label.
type rowInfo struct {
	w, lab int32
}

// builder grows trees with the presorted-column form of CART over a
// presort, one tree per fit call, reusing its scratch from tree to tree.
//
// Counts: a tree's training set is given as a count per presort row — a
// bootstrap replicate's copies of a row are one row counted several times,
// and a row the replicate never drew is counted 0 — so the builder works
// on one position per counted row, with its count as the row's weight.
// Everything that counts samples counts weight: the class histograms, a
// node's size (terminal, MinLeaf, the impurity divisor) and the left
// child's size when a node splits. Positions stay positions: a segment [lo,
// hi) is hi-lo rows, and the partition and the sorts move rows. A feature
// subset is a column map: the tree's feature j is presort feature cols[j].
//
// A node is a segment [lo, hi) of positions. rows[lo:hi] names the node's
// rows, and for every feature f that is sorted on the path from the root
// to the node, segs[f][lo:hi] holds the same rows as entries in ascending
// key order of feature f. A feature joins the path the first time a node
// draws it as a split candidate. At the root that costs one filter of the
// presort's order, keeping the counted rows; further down, the node
// gathers its rows' keys and sorts them (radixSort), in at most
// ⌈bits(distinct values)/8⌉ byte passes. From there down the order is
// inherited, not recomputed: splitting a node stable-partitions rows and
// every on-path feature's segment around the winning threshold, so both
// halves are again sorted segments, and the feature leaves the path when
// the node that sorted it is finished. Features no node on the path has
// drawn cost nothing.
//
// Cost: one O(n) filter per feature the root draws, one O(g) radix sort
// per feature first drawn further down for g counted rows, and after that
// one O(segment) scan per candidate feature per node plus one O(segment)
// partition per on-path feature per node, i.e. O(g) per feature per tree
// level. Memory is one entry (8 bytes) per presort row per feature.
//
// A split scan walks a segment once, adding each row's weight to its
// class; there are two forms of it, picked by the criterion and the class
// count (scanGini2 for Gini over two classes, the generic loop in
// bestSplit otherwise), which compute the same floats.
//
// The result is byte-identical to searching each node with a fresh sort of
// all its samples, every copy of every row included (the reference builder
// in tree_test.go):
//   - a scan reads only (value, label) pairs in value order and evaluates
//     gain only at positions where the next key differs, i.e. where the
//     next value differs, so the class counts on either side of every
//     evaluated position — and with them every gain, the sequence of gain
//     > bestGain updates and the chosen threshold v + (next-v)/2 — do not
//     depend on how equal values are ordered among themselves (-0 and +0
//     are equal and yield the same threshold against any neighbour, so
//     either may stand for their shared key);
//   - the copies of a row have equal values, so the per-sample scan never
//     evaluates a position between two of them, and the positions it does
//     evaluate are the boundaries between keys that the weighted scan
//     evaluates, in the same order, with the same integer counts on either
//     side — the same gains, bit for bit;
//   - samples go left by the same v <= threshold test, which on a sorted
//     segment selects a prefix, and the copies of a row go together;
//   - candidate features are drawn from rng once per searched node, in
//     the same depth-first pre-order.
//
// Every scratch slice is sized by the presort and kept across trees (a
// feature's column when the feature is first sorted, a depth's histogram
// pair when a tree first reaches it); growing a node allocates nothing,
// and the slab writer's node and histogram slices are reused as well.
type builder struct {
	p   *presort
	t   *Tree
	w   slabWriter
	rng *rand.Rand

	feats  []*column // the tree's features, by its feature index
	info   []rowInfo // by row: the tree's count of it and its label
	rows   []int32   // positions -> counted row, partitioned along with the tree
	segs   [][]entry // per feature, one entry per position, allocated when first sorted
	sorted []bool    // sorted[f]: f is on the path to the node being built
	onPath []int     // the features with sorted[f], in the order they joined

	goLeft []uint8 // by row: 1 when the row goes to the left child
	buf    []entry // radix and partition scratch
	rowBuf []int32 // partition scratch for rows
	cands  []int   // candidate features; the identity when all are drawn
	total  []int   // the root's class counts
	left   []int   // class counts left and right of the scan position
	right  []int
	// children[d] holds the class histograms of the two children of the
	// node being split at depth d, left then right. Only that node writes
	// the row, and the right child's half is still intact when the left
	// subtree returns; a leaf's histogram is copied into the slab.
	children [][]int
}

// fit grows t over the presort rows, row i counted counts[i] times, on the
// presort features cols (nil: all of them).
func (b *builder) fit(t *Tree, counts []int32, cols []int) error {
	p := b.p
	if len(counts) != p.n {
		return fmt.Errorf("tree: %d row counts for %d rows", len(counts), p.n)
	}
	d := len(cols)
	if cols == nil {
		d = len(p.cols)
	}
	b.feats = b.feats[:0]
	for j := range d {
		f := j
		if cols != nil {
			if f = cols[j]; f < 0 || f >= len(p.cols) {
				return fmt.Errorf("tree: column %d outside the presort's %d", f, len(p.cols))
			}
		}
		b.feats = append(b.feats, &p.cols[f])
	}

	if b.info == nil {
		b.info = make([]rowInfo, p.n)
		b.rows = make([]int32, 0, p.n)
		b.goLeft = make([]uint8, p.n)
		b.buf = make([]entry, p.n)
		b.rowBuf = make([]int32, p.n)
	}
	b.rows = b.rows[:0]
	size, maxLabel := 0, 0
	for r, c := range counts {
		lab := p.y[r]
		b.info[r] = rowInfo{w: c, lab: int32(lab)}
		if c == 0 {
			continue
		}
		if c < 0 {
			return fmt.Errorf("tree: negative count %d for row %d", c, r)
		}
		if lab < 0 {
			return fmt.Errorf("tree: negative label %d at sample %d", lab, r)
		}
		b.rows = append(b.rows, int32(r))
		size += int(c)
		maxLabel = max(maxLabel, lab)
	}
	if size == 0 {
		return errors.New("tree: empty training set")
	}
	if size > math.MaxInt32 || maxLabel > math.MaxInt32 {
		return fmt.Errorf("tree: %d samples with labels up to %d exceed the builder's 32-bit indices", size, maxLabel)
	}
	// The first NaN a counted row holds, in row-major order.
	nanRow, nanCol := p.n, 0
	for j, c := range b.feats {
		for _, r := range c.nan {
			if int(r) >= nanRow {
				break
			}
			if counts[r] > 0 {
				nanRow, nanCol = int(r), j
				break
			}
		}
	}
	if nanRow < p.n {
		return fmt.Errorf("tree: NaN feature value at row %d, column %d", nanRow, nanCol)
	}

	t.nClasses = max(maxLabel+1, 2)
	t.nFeatures = d
	if t.cfg.MaxFeatures < 0 {
		t.cfg.MaxFeatures = max(int(math.Round(math.Sqrt(float64(d)))), 1)
	}
	t.nodes = 0

	b.t = t
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(t.cfg.Seed))
	} else {
		b.rng.Seed(t.cfg.Seed)
	}
	for len(b.segs) < d {
		b.segs = append(b.segs, nil)
		b.sorted = append(b.sorted, false)
	}
	b.onPath = b.onPath[:0]
	b.cands = b.cands[:0]
	for f := range d {
		b.cands = append(b.cands, f)
	}
	k := t.nClasses
	if len(b.total) != k {
		b.total, b.left, b.right = make([]int, k), make([]int, k), make([]int, k)
		b.children = b.children[:0]
	}
	clear(b.total)
	for _, r := range b.rows {
		in := b.info[r]
		b.total[in.lab] += int(in.w)
	}
	b.w = slabWriter{internal: b.w.internal[:0], leafSlab: b.w.leafSlab[:0]}
	b.build(0, len(b.rows), size, 0, b.total)
	b.w.finish(t)
	b.t = nil
	return nil
}

// terminal reports whether a node of n samples (its weight) with the given
// class counts at the given depth is a leaf whatever its features look
// like.
func (b *builder) terminal(counts []int, n, depth int) bool {
	for _, c := range counts {
		if c == n {
			return true // pure
		}
	}
	return n < 2*b.t.cfg.MinLeaf || (b.t.cfg.MaxDepth > 0 && depth >= b.t.cfg.MaxDepth)
}

// build grows the subtree over positions [lo, hi), which hold size samples
// and whose class counts the caller has already taken, writes it to the
// slab and returns its child reference. counts becomes the leaf's
// histogram when the node does not split.
func (b *builder) build(lo, hi, size, depth int, counts []int) int32 {
	b.t.nodes++
	if b.terminal(counts, size, depth) {
		return b.w.leaf(counts, depth)
	}

	mark := len(b.onPath)
	defer b.leavePath(mark)

	feat, thr, ok := b.bestSplit(lo, hi, size, counts)
	if !ok {
		return b.w.leaf(counts, depth)
	}

	// The threshold is a rounded midpoint and can land on either neighbour
	// (or be NaN or ±Inf when a neighbour is infinite), so membership is
	// decided by the comparison prediction will make, not by the scan
	// position; a split that leaves one side empty makes a leaf. mid counts
	// positions, nl samples.
	clear(b.left)
	mid, nl := lo, 0
	vals := b.feats[feat].vals
	for _, e := range b.segs[feat][lo:hi] {
		var g uint8
		if vals[e.key] <= thr {
			g = 1
			in := b.info[e.row]
			mid++
			nl += int(in.w)
			b.left[in.lab] += int(in.w)
		}
		b.goLeft[e.row] = g
	}
	if mid == lo || mid == hi {
		return b.w.leaf(counts, depth)
	}
	k := len(counts)
	if depth == len(b.children) {
		b.children = append(b.children, make([]int, 2*k))
	}
	both := b.children[depth]
	leftCounts, rightCounts := both[:k:k], both[k:]
	for lab, c := range b.left {
		leftCounts[lab] = c
		rightCounts[lab] = counts[lab] - c
	}

	// Children that are leaves on their counts alone never look at their
	// samples, so the last split of a branch skips the partition.
	nr := size - nl
	if !b.terminal(leftCounts, nl, depth+1) || !b.terminal(rightCounts, nr, depth+1) {
		b.partition(lo, hi, feat)
	}
	i := b.w.split(feat, thr)
	left := b.build(lo, mid, nl, depth+1, leftCounts)
	right := b.build(mid, hi, nr, depth+1, rightCounts)
	b.w.children(i, left, right)
	return i
}

// leavePath takes the features sorted since mark off the path: their
// segments are valid only under the node that sorted them.
func (b *builder) leavePath(mark int) {
	for _, f := range b.onPath[mark:] {
		b.sorted[f] = false
	}
	b.onPath = b.onPath[:mark]
}

// partition moves the samples flagged in goLeft to the front of [lo, hi)
// in rows and in every on-path feature's segment, keeping the relative
// order on both sides, so each side is a sorted segment of its own. The
// split feature's segment is already in that shape.
func (b *builder) partition(lo, hi, feat int) {
	rows := b.rows[lo:hi]
	l, r := 0, 0
	for _, row := range rows {
		g := int(b.goLeft[row])
		rows[l], b.rowBuf[r] = row, row
		l += g
		r += 1 - g
	}
	copy(rows[l:], b.rowBuf[:r])

	for _, f := range b.onPath {
		if f == feat {
			continue
		}
		seg := b.segs[f][lo:hi]
		l, r := 0, 0
		for _, e := range seg {
			// Both stores, then advance one cursor: no branch to mispredict
			// on a flag that is a coin toss. seg[l] is at or behind the
			// entry just read.
			g := int(b.goLeft[e.row])
			seg[l], b.buf[r] = e, e
			l += g
			r += 1 - g
		}
		copy(seg[l:], b.buf[:r])
	}
}

// column returns the node's samples in ascending key order of feature f,
// sorting them if no node on the path has yet: the root filters the
// presort's order down to its counted rows, any other node sorts its own.
func (b *builder) column(f, lo, hi int) []entry {
	if b.sorted[f] {
		return b.segs[f][lo:hi]
	}
	if b.segs[f] == nil {
		b.segs[f] = make([]entry, b.p.n)
	}
	col, c := b.segs[f], b.feats[f]
	switch order := c.order; {
	case lo > 0 || hi < len(b.rows):
		for i, row := range b.rows[lo:hi] {
			col[lo+i] = entry{key: c.keys[row], row: row}
		}
		radixSort(col[lo:hi], b.buf[:hi-lo], c.passes)
	case len(order) == len(b.rows):
		// The counted rows are exactly the rows of order (a counted row
		// cannot be NaN in f, or fit would have failed), so the root's
		// column is the presort's order itself.
		copy(col, order)
	default:
		i, info := 0, b.info
		for _, e := range order {
			// Store, then advance past the entry only when its row is
			// counted: a count is never negative, so -w's sign bit is w > 0.
			// col has room for every presort row, so the store past the
			// last counted row stays in bounds.
			col[i] = e
			i += int(uint32(-info[e.row].w) >> 31)
		}
	}
	b.sorted[f] = true
	b.onPath = append(b.onPath, f)
	return col[lo:hi]
}

// insertionMax is the segment length up to which radixSort insertion-sorts
// rather than clear and fill the byte histograms.
const insertionMax = 48

// radixSort orders a by key, ascending, using tmp (same length) as
// scratch: a byte-wide least-significant-digit radix sort over the low
// passes bytes of the keys, the only ones that may be non-zero. One read
// builds every histogram, and a byte on which every key agrees costs no
// pass.
func radixSort(a, tmp []entry, passes int) {
	if len(a) <= insertionMax {
		for i := 1; i < len(a); i++ {
			e := a[i]
			j := i
			for ; j > 0 && a[j-1].key > e.key; j-- {
				a[j] = a[j-1]
			}
			a[j] = e
		}
		return
	}
	var hist [4][256]int32
	if passes <= 2 {
		for _, e := range a {
			hist[0][byte(e.key)]++
			hist[1][byte(e.key>>8)]++
		}
	} else {
		for _, e := range a {
			hist[0][byte(e.key)]++
			hist[1][byte(e.key>>8)]++
			hist[2][byte(e.key>>16)]++
			hist[3][byte(e.key>>24)]++
		}
	}
	src, dst := a, tmp
	for p := range passes {
		h := &hist[p]
		shift := uint(p) * 8
		if int(h[byte(src[0].key>>shift)]) == len(src) {
			continue
		}
		sum := int32(0)
		for i, c := range h {
			h[i] = sum
			sum += c
		}
		for _, e := range src {
			d := byte(e.key >> shift)
			dst[h[d]] = e
			h[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// bestSplit searches candidate features of the node over positions [lo,
// hi), size samples, for the split with the largest impurity decrease. It
// returns ok=false when no split satisfies MinLeaf or improves impurity.
func (b *builder) bestSplit(lo, hi, size int, total []int) (feature int, threshold float64, ok bool) {
	n := float64(size)
	crit, minLeaf := b.t.cfg.Criterion, b.t.cfg.MinLeaf
	parentImp := impurity(total, size, crit)
	gini2 := crit == Gini && len(total) == 2

	// Any valid split is acceptable, even at zero gain (as in sklearn's
	// CART): datasets like XOR have zero-gain first splits but still
	// separate perfectly once grown. Node sizes strictly shrink, so
	// termination is guaranteed.
	bestGain := math.Inf(-1)
	leftCounts, rightCounts := b.left, b.right

	for _, f := range b.candidateFeatures() {
		seg := b.column(f, lo, hi)
		if gini2 {
			if gain, thr, found := b.scanGini2(seg, b.feats[f].vals, size, total[1], parentImp, bestGain); found {
				bestGain, feature, threshold, ok = gain, f, thr, true
			}
			continue
		}
		clear(leftCounts)
		copy(rightCounts, total)

		nl := 0
		for pos := 0; pos < len(seg)-1; pos++ {
			e := seg[pos]
			in := b.info[e.row]
			w := int(in.w)
			leftCounts[in.lab] += w
			rightCounts[in.lab] -= w
			nl += w

			next := seg[pos+1].key
			if e.key == next {
				continue // cannot split between equal values
			}
			nr := size - nl
			if nl < minLeaf || nr < minLeaf {
				continue
			}
			child := (float64(nl)*impurity(leftCounts, nl, crit) +
				float64(nr)*impurity(rightCounts, nr, crit)) / n
			if gain := parentImp - child; gain > bestGain {
				bestGain = gain
				feature = f
				v, nv := b.feats[f].vals[e.key], b.feats[f].vals[next]
				threshold = v + (nv-v)/2
				ok = true
			}
		}
	}
	return feature, threshold, ok
}

// scanGini2 is bestSplit's scan of one sorted segment (values vals by key)
// for Gini over two classes: the class counts stay two integers (the left
// class-1 count beside the left size; total1 is the node's class-1 count),
// and impurity's Gini arithmetic is written out operation for operation —
// inv := 1/n, g := 1, g -= p*p per class in class order — so every gain
// is the float the generic scan computes. It returns the best gain above
// best, with its threshold, and whether there was one.
func (b *builder) scanGini2(seg []entry, vals []float64, size, total1 int, parentImp, best float64) (gain, threshold float64, found bool) {
	n := float64(size)
	minLeaf, info := b.t.cfg.MinLeaf, b.info
	nl, l1 := 0, 0
	for pos := 0; pos < len(seg)-1; pos++ {
		e := seg[pos]
		in := info[e.row]
		w := int(in.w)
		nl += w
		l1 += w * int(in.lab)

		next := seg[pos+1].key
		if e.key == next {
			continue // cannot split between equal values
		}
		nr := size - nl
		if nl < minLeaf || nr < minLeaf {
			continue
		}
		r1 := total1 - l1
		inv := 1 / float64(nl)
		gl := 1.0
		p := float64(nl-l1) * inv
		gl -= p * p
		p = float64(l1) * inv
		gl -= p * p
		inv = 1 / float64(nr)
		gr := 1.0
		p = float64(nr-r1) * inv
		gr -= p * p
		p = float64(r1) * inv
		gr -= p * p
		child := (float64(nl)*gl + float64(nr)*gr) / n
		if g := parentImp - child; g > best {
			v, nv := vals[e.key], vals[next]
			best, threshold, found = g, v+(nv-v)/2, true
		}
	}
	return best, threshold, found
}

// candidateFeatures draws the features a node may split on: all of them,
// or MaxFeatures of a fresh permutation. The permutation is rand.Perm's
// own inside-out shuffle written into the builder's buffer — the same
// draws from rng and the same result, without Perm's allocation (the loop
// never reads an element it has not written, so the buffer needs no reset
// between nodes; fit resets it to the identity for the all-features case).
func (b *builder) candidateFeatures() []int {
	k := b.t.cfg.MaxFeatures
	if k <= 0 || k >= b.t.nFeatures {
		return b.cands
	}
	for i := range b.cands {
		j := b.rng.Intn(i + 1)
		b.cands[i] = b.cands[j]
		b.cands[j] = i
	}
	return b.cands[:k]
}

// impurity computes Gini impurity or entropy (nats scale is irrelevant for
// split comparison) of a class histogram with n total samples.
func impurity(counts []int, n int, c Criterion) float64 {
	if n == 0 {
		return 0
	}
	inv := 1 / float64(n)
	switch c {
	case Entropy:
		var h float64
		for _, cnt := range counts {
			if cnt == 0 {
				continue
			}
			p := float64(cnt) * inv
			h -= p * math.Log2(p)
		}
		return h
	default: // Gini
		g := 1.0
		for _, cnt := range counts {
			p := float64(cnt) * inv
			g -= p * p
		}
		return g
	}
}
