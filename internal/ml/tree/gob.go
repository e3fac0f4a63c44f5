package tree

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
)

func init() {
	// Self-register so trees survive gob encoding behind the
	// model.Classifier interface.
	gob.Register(&Tree{})
}

// nodeGob is one wire-form tree node: Left/Right index into the node
// slice, -1 marks a leaf. A leaf carries its class histogram in Counts and
// a zero Feature and Threshold; an internal node carries no Counts.
type nodeGob struct {
	Feature     int
	Threshold   float64
	Left, Right int
	Counts      []int
}

// treeGob is the exported wire form of a trained Tree: the nodes in one
// preorder slice, each internal node followed by its left subtree and then
// its right one.
type treeGob struct {
	Cfg       Config
	NFeatures int
	NClasses  int
	NodeTally int
	Nodes     []nodeGob
}

// GobEncode implements gob.GobEncoder for trained-pipeline serialization.
// It walks the slab from the root in preorder, leaves included, so the wire
// form is the node-per-entry shape every saved model has had.
func (t *Tree) GobEncode() ([]byte, error) {
	if t.flat == nil {
		return nil, ErrNotFitted
	}
	g := treeGob{Cfg: t.cfg, NFeatures: t.nFeatures, NClasses: t.nClasses, NodeTally: t.nodes,
		Nodes: make([]nodeGob, 0, len(t.flat))}
	var walk func(i int32) int
	walk = func(i int32) int {
		at := len(g.Nodes)
		nd := &t.flat[i]
		if nd.isLeaf(i) {
			off := int(nd.leafOff)
			g.Nodes = append(g.Nodes, nodeGob{Left: -1, Right: -1, Counts: t.leafSlab[off : off+t.nClasses]})
			return at
		}
		g.Nodes = append(g.Nodes, nodeGob{Feature: int(nd.feature), Threshold: nd.threshold})
		left := walk(nd.left)
		right := walk(nd.right)
		g.Nodes[at].Left, g.Nodes[at].Right = left, right
		return at
	}
	walk(0)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder. The bytes may come from anywhere (a
// model file, a POST /v1/models body), and the walks index the slab and
// the input row without bounds checks, so everything they rely on is
// checked here: the nodes form one binary tree rooted at node 0 (children
// in range and after their parent, every other node referenced by exactly
// one parent — a shared child would make the slab exponentially larger
// than the gob), every split feature is a column of an NFeatures-wide
// row, and every leaf carries an NClasses-wide histogram of non-negative
// counts. The checked nodes then go straight into the slab, through the
// slab writer Fit uses. Only what a walk reads is kept: a leaf's Feature
// and Threshold and an internal node's Counts are dropped, so a tree that
// arrived with any of them set re-encodes without them.
func (t *Tree) GobDecode(b []byte) error {
	var g treeGob
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&g); err != nil {
		return err
	}
	if len(g.Nodes) == 0 {
		return fmt.Errorf("tree: corrupt gob: no nodes")
	}
	if g.NFeatures < 0 || g.NFeatures > math.MaxInt32 || g.NClasses < 2 {
		return fmt.Errorf("tree: corrupt gob: %d features, %d classes", g.NFeatures, g.NClasses)
	}
	if leaves := (len(g.Nodes) + 1) / 2; leaves > math.MaxInt32/g.NClasses {
		return fmt.Errorf("tree: gob of %d nodes x %d classes exceeds the slab's 32-bit offsets", len(g.Nodes), g.NClasses)
	}
	hasParent := make([]bool, len(g.Nodes))
	for i, ng := range g.Nodes {
		if ng.Left < 0 && ng.Right < 0 {
			if len(ng.Counts) != g.NClasses {
				return fmt.Errorf("tree: corrupt gob: leaf %d has %d counts for %d classes", i, len(ng.Counts), g.NClasses)
			}
			for _, c := range ng.Counts {
				if c < 0 {
					return fmt.Errorf("tree: corrupt gob: leaf %d has a negative count", i)
				}
			}
			continue
		}
		// GobEncode emits children at strictly greater preorder indices;
		// anything else (including back-references, which would make
		// Predict loop forever) is corruption.
		if ng.Left <= i || ng.Left >= len(g.Nodes) || ng.Right <= i || ng.Right >= len(g.Nodes) {
			return fmt.Errorf("tree: corrupt gob: node %d children %d/%d", i, ng.Left, ng.Right)
		}
		if ng.Feature < 0 || ng.Feature >= g.NFeatures {
			return fmt.Errorf("tree: corrupt gob: node %d splits on feature %d of %d", i, ng.Feature, g.NFeatures)
		}
		if ng.Left == ng.Right || hasParent[ng.Left] || hasParent[ng.Right] {
			return fmt.Errorf("tree: corrupt gob: a child of node %d (%d/%d) has two parents", i, ng.Left, ng.Right)
		}
		hasParent[ng.Left], hasParent[ng.Right] = true, true
	}
	for i, ok := range hasParent[1:] {
		if !ok {
			return fmt.Errorf("tree: corrupt gob: node %d has no parent", i+1)
		}
	}
	t.cfg = g.Cfg
	t.nFeatures = g.NFeatures
	t.nClasses = g.NClasses
	t.nodes = g.NodeTally
	// The nodes are one binary tree rooted at node 0, so a walk down the
	// child links from there meets each once, in preorder — whatever order
	// the wire lists them in — and lays the slab down as Fit does.
	var w slabWriter
	var lay func(i, depth int) int32
	lay = func(i, depth int) int32 {
		ng := &g.Nodes[i]
		if ng.Left < 0 {
			return w.leaf(ng.Counts, depth)
		}
		at := w.split(ng.Feature, ng.Threshold)
		left := lay(ng.Left, depth+1)
		right := lay(ng.Right, depth+1)
		w.children(at, left, right)
		return at
	}
	lay(0, 0)
	w.finish(t)
	return nil
}
