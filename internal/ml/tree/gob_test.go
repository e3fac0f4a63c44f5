package tree

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"trusthmd/pkg/linalg"
)

func encodeTreeGob(t testing.TB, g treeGob) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stumpGob is a well-formed three-node tree over two features and two
// classes; the hostile shapes below are each one edit away from it.
func stumpGob() treeGob {
	return treeGob{
		NFeatures: 2, NClasses: 2, NodeTally: 3,
		Nodes: []nodeGob{
			{Feature: 1, Threshold: 0.5, Left: 1, Right: 2},
			{Left: -1, Right: -1, Counts: []int{3, 0}},
			{Left: -1, Right: -1, Counts: []int{1, 4}},
		},
	}
}

// diamondGob is a chain of n nodes whose every internal node names the next
// node as both its children. Node indices only ever grow, so it passes a
// range check, but flattened by the pointers it is a complete tree of
// 2^(n-1) leaves: 23 nodes made an 8-million-node slab, 40 never returned.
func diamondGob(n int) treeGob {
	g := treeGob{NFeatures: 1, NClasses: 2, NodeTally: n}
	for i := 0; i < n-1; i++ {
		g.Nodes = append(g.Nodes, nodeGob{Left: i + 1, Right: i + 1})
	}
	g.Nodes = append(g.Nodes, nodeGob{Left: -1, Right: -1, Counts: []int{1, 0}})
	return g
}

// hostileGobs are tree gobs that decode as gob but do not describe a tree
// the walks can serve; want is a fragment of the error each must produce.
func hostileGobs() []struct {
	name, want string
	g          treeGob
} {
	edit := func(f func(g *treeGob)) treeGob {
		g := stumpGob()
		f(&g)
		return g
	}
	return []struct {
		name, want string
		g          treeGob
	}{
		{"no nodes", "no nodes", edit(func(g *treeGob) { g.Nodes = nil })},
		{"feature far out of range", "feature", edit(func(g *treeGob) { g.Nodes[0].Feature = 1 << 28 })},
		{"feature past int32", "feature", edit(func(g *treeGob) { g.Nodes[0].Feature = 1 << 40 })},
		{"feature == NFeatures", "feature", edit(func(g *treeGob) { g.Nodes[0].Feature = 2 })},
		{"negative feature", "feature", edit(func(g *treeGob) { g.Nodes[0].Feature = -1 })},
		{"negative NFeatures", "features", edit(func(g *treeGob) { g.NFeatures = -1 })},
		{"NFeatures past int32", "features", edit(func(g *treeGob) { g.NFeatures = 1 << 40 })},
		{"one class", "classes", edit(func(g *treeGob) { g.NClasses = 1 })},
		{"zero classes", "classes", edit(func(g *treeGob) { g.NClasses = 0 })},
		{"back reference", "children", edit(func(g *treeGob) { g.Nodes[0].Left = 0 })},
		{"child out of range", "children", edit(func(g *treeGob) { g.Nodes[0].Right = 3 })},
		{"half-internal node", "children", edit(func(g *treeGob) { g.Nodes[0].Right = -1 })},
		{"both children the same node", "two parents", edit(func(g *treeGob) {
			g.Nodes[0].Right = 1
		})},
		{"two parents share a child", "two parents", treeGob{
			NFeatures: 1, NClasses: 2,
			Nodes: []nodeGob{
				{Left: 1, Right: 2},
				{Left: 3, Right: 4},
				{Left: 4, Right: 5},
				{Left: -1, Right: -1, Counts: []int{1, 0}},
				{Left: -1, Right: -1, Counts: []int{1, 0}},
				{Left: -1, Right: -1, Counts: []int{1, 0}},
			},
		}},
		{"orphan node", "no parent", edit(func(g *treeGob) {
			g.Nodes = append(g.Nodes, nodeGob{Left: -1, Right: -1, Counts: []int{1, 1}})
		})},
		{"narrow leaf", "counts", edit(func(g *treeGob) { g.Nodes[1].Counts = []int{3} })},
		{"wide leaf", "counts", edit(func(g *treeGob) { g.Nodes[2].Counts = []int{1, 4, 2} })},
		{"leaf without counts", "counts", edit(func(g *treeGob) { g.Nodes[1].Counts = nil })},
		{"negative count", "negative count", edit(func(g *treeGob) { g.Nodes[2].Counts = []int{-1, 4} })},
		{"diamond chain, 23 nodes", "two parents", diamondGob(23)},
		{"diamond chain, 40 nodes", "two parents", diamondGob(40)},
		{"diamond chain, 4000 nodes", "two parents", diamondGob(4000)},
	}
}

// TestGobDecodeRejects: every shape the unchecked walks could not serve is
// an error at decode — not a fault at the first Predict, and not a slab
// that takes seconds (or forever) to build.
func TestGobDecodeRejects(t *testing.T) {
	var back Tree
	if err := back.GobDecode(encodeTreeGob(t, stumpGob())); err != nil {
		t.Fatalf("the well-formed stump the hostile shapes are edits of: %v", err)
	}
	if got := back.Predict([]float64{0, 0.5}); got != 0 {
		t.Fatalf("stump predicts %d on its threshold, want 0 (left)", got)
	}
	for _, c := range hostileGobs() {
		t.Run(c.name, func(t *testing.T) {
			b := encodeTreeGob(t, c.g)
			done := make(chan error, 1)
			go func() { done <- new(Tree).GobDecode(b) }()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("decoded without error")
				}
				if !strings.Contains(err.Error(), c.want) {
					t.Fatalf("error %q does not mention %q", err, c.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("decode of a %d-byte gob still running after 5s", len(b))
			}
		})
	}
}

// TestGobEncodeRoundTrip pins the encoder on trees Fit wrote — small
// random ones, a deep ragged one and one that is a single leaf: decoding
// GobEncode's bytes lays down the slab Fit laid down, and encoding that
// again gives back the same bytes.
func TestGobEncodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var trees []*Tree
	for i := 0; i < 10; i++ {
		tr, _ := randomFitted(t, rng)
		trees = append(trees, tr)
	}
	trees = append(trees, deepTree(t, rng, 2500, 6))
	leaf := New(Config{})
	if err := leaf.Fit(linalg.New(4, 3), []int{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	trees = append(trees, leaf)
	for ti, tr := range trees {
		b, err := tr.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		var back Tree
		if err := back.GobDecode(b); err != nil {
			t.Fatalf("tree %d: %v", ti, err)
		}
		if !reflect.DeepEqual(back.flat, tr.flat) || !reflect.DeepEqual(back.labels, tr.labels) ||
			!reflect.DeepEqual(back.leafSlab, tr.leafSlab) || !reflect.DeepEqual(back.qs, tr.qs) ||
			back.nInternal != tr.nInternal || back.flatDepth != tr.flatDepth {
			t.Fatalf("tree %d: the decoded slab differs from the one Fit wrote", ti)
		}
		again, err := back.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("tree %d: re-encoding the decoded tree wrote %d bytes, not the %d it was decoded from", ti, len(again), len(b))
		}
	}
}

// FuzzTreeGobDecode: whatever the bytes, GobDecode returns an error or a
// tree every walk can serve — no fault, no hang, and the slab walks agree
// with the walk over the wire-form nodes the bytes hold. A decoded tree
// also re-encodes to bytes that decode and encode to themselves.
func FuzzTreeGobDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 4; i++ {
		tr, _ := randomFitted(f, rng)
		b, err := tr.GobEncode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add(encodeTreeGob(f, stumpGob()))
	for _, c := range hostileGobs() {
		f.Add(encodeTreeGob(f, c.g))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var tr Tree
		if err := tr.GobDecode(b); err != nil {
			return
		}
		enc, err := tr.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		var again Tree
		if err := again.GobDecode(enc); err != nil {
			t.Fatalf("re-encoded tree does not decode: %v", err)
		}
		if enc2, err := again.GobEncode(); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("re-encoded tree encodes to other bytes (%v)", err)
		}
		if tr.nFeatures > 1<<12 {
			t.Skip("rows too wide to build here")
		}
		nodes := wireNodes(t, b)
		const rows = 40 // a lockstep batch of 8 and a level-walk batch of 40
		X := linalg.New(rows, tr.nFeatures)
		fill := rand.New(rand.NewSource(int64(len(b))))
		for i, raw := 0, X.Raw(); i < len(raw); i++ {
			raw[i] = fill.NormFloat64()
			if fill.Intn(16) == 0 {
				raw[i] = math.NaN()
			}
		}
		small, batch := make([]int, 8), make([]int, rows)
		head := linalg.New(len(small), tr.nFeatures)
		copy(head.Raw(), X.Raw())
		tr.PredictBatch(head, small)
		tr.PredictBatch(X, batch)
		for i := 0; i < rows; i++ {
			want := majorityLabel(wireLeaf(nodes, X.Row(i)))
			if got := tr.Predict(X.Row(i)); got != want {
				t.Fatalf("row %d: Predict %d, wire walk %d", i, got, want)
			}
			if batch[i] != want || (i < 8 && small[i] != want) {
				t.Fatalf("row %d: PredictBatch %d, wire walk %d", i, batch[i], want)
			}
			tr.PredictProba(X.Row(i))
		}
	})
}
