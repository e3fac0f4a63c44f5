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

// nodeGob is one flattened tree node: Left/Right index into the node slice,
// -1 marks a leaf.
type nodeGob struct {
	Feature     int
	Threshold   float64
	Left, Right int
	Counts      []int
}

// treeGob is the exported wire form of a trained Tree, with the node
// pointers flattened into a preorder slice.
type treeGob struct {
	Cfg       Config
	NFeatures int
	NClasses  int
	NodeTally int
	Nodes     []nodeGob
}

func flatten(n *node, out *[]nodeGob) int {
	idx := len(*out)
	*out = append(*out, nodeGob{Feature: n.feature, Threshold: n.threshold, Left: -1, Right: -1, Counts: n.counts})
	if !n.leaf() {
		(*out)[idx].Left = flatten(n.left, out)
		(*out)[idx].Right = flatten(n.right, out)
	}
	return idx
}

// GobEncode implements gob.GobEncoder for trained-pipeline serialization.
func (t *Tree) GobEncode() ([]byte, error) {
	if t.root == nil {
		return nil, ErrNotFitted
	}
	g := treeGob{Cfg: t.cfg, NFeatures: t.nFeatures, NClasses: t.nClasses, NodeTally: t.nodes}
	flatten(t.root, &g.Nodes)
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
// counts.
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
	nodes := make([]node, len(g.Nodes))
	hasParent := make([]bool, len(g.Nodes))
	for i, ng := range g.Nodes {
		nodes[i] = node{feature: ng.Feature, threshold: ng.Threshold, counts: ng.Counts}
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
		// flatten emits children at strictly greater preorder indices;
		// anything else (including back-references, which would make
		// Predict loop forever) is corruption.
		if ng.Left <= i || ng.Left >= len(nodes) || ng.Right <= i || ng.Right >= len(nodes) {
			return fmt.Errorf("tree: corrupt gob: node %d children %d/%d", i, ng.Left, ng.Right)
		}
		if ng.Feature < 0 || ng.Feature >= g.NFeatures {
			return fmt.Errorf("tree: corrupt gob: node %d splits on feature %d of %d", i, ng.Feature, g.NFeatures)
		}
		if ng.Left == ng.Right || hasParent[ng.Left] || hasParent[ng.Right] {
			return fmt.Errorf("tree: corrupt gob: a child of node %d (%d/%d) has two parents", i, ng.Left, ng.Right)
		}
		hasParent[ng.Left], hasParent[ng.Right] = true, true
		nodes[i].left = &nodes[ng.Left]
		nodes[i].right = &nodes[ng.Right]
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
	t.root = &nodes[0]
	// The wire format stays pointer-shaped (frozen v2 blobs must keep
	// decoding); the inference slab is rebuilt on this side of the wire.
	t.buildFlat()
	return nil
}
