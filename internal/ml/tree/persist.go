package tree

import (
	"fmt"

	"stencilmart/internal/persist"
)

// FlatTree is one serialized tree: its nodes in preorder as parallel
// columns, row i of every column being node i. The flat form keeps
// checkpoints free of pointer cycles and lets reconstruction validate
// structure (bounds, acyclicity, full coverage) before any prediction
// runs; columns keep a node to a few bytes and decode without reflection.
type FlatTree struct {
	// Feature is the split feature index, or -1 for a leaf.
	Feature persist.Ints `json:"f"`
	// Threshold is the split threshold (unused for leaves).
	Threshold persist.Floats `json:"t"`
	// Value is the leaf prediction (unused for internal nodes).
	Value persist.Floats `json:"v"`
	// Gain is the split gain at internal nodes (feeds FeatureImportance).
	Gain persist.Floats `json:"g"`
	// Left and Right index the node columns; -1 for leaves.
	Left  persist.Ints `json:"l"`
	Right persist.Ints `json:"r"`
}

const maxFlatDepth = 256

// Flatten serializes the tree into preorder node columns.
func (t *Tree) Flatten() FlatTree {
	var out FlatTree
	for _, n := range t.flat.nodes {
		out.Feature = append(out.Feature, int(n.feature))
		out.Threshold = append(out.Threshold, n.thr)
		out.Value = append(out.Value, n.value)
		out.Gain = append(out.Gain, n.gain)
		out.Left = append(out.Left, int(n.left))
		out.Right = append(out.Right, int(n.right))
	}
	return out
}

// TreeFromFlat rebuilds a tree from node columns, validating structure:
// the columns must be equally long, child indices must stay in bounds,
// every node must be referenced at most once (no sharing, no cycles), and
// internal nodes need both children, no deeper than maxFlatDepth (fitted
// trees stop at TreeConfig.MaxDepth; the bound keeps a hostile chain of
// nodes from exhausting the stack). A corrupt tree fails here rather than
// mispredicting.
func TreeFromFlat(ft FlatTree) (*Tree, error) {
	n := len(ft.Feature)
	if n == 0 {
		return nil, fmt.Errorf("tree: empty node array")
	}
	if len(ft.Threshold) != n || len(ft.Value) != n || len(ft.Gain) != n || len(ft.Left) != n || len(ft.Right) != n {
		return nil, fmt.Errorf("tree: ragged node columns: %d f, %d t, %d v, %d g, %d l, %d r", n, len(ft.Threshold), len(ft.Value), len(ft.Gain), len(ft.Left), len(ft.Right))
	}
	used := make([]bool, n)
	var build func(i, depth int) (*node, error)
	build = func(i, depth int) (*node, error) {
		if i < 0 || i >= n || depth > maxFlatDepth {
			return nil, fmt.Errorf("tree: node index %d outside [0,%d) or deeper than %d", i, n, maxFlatDepth)
		}
		if used[i] {
			return nil, fmt.Errorf("tree: node %d referenced twice", i)
		}
		used[i] = true
		nd := &node{feature: ft.Feature[i], threshold: ft.Threshold[i], value: ft.Value[i], gain: ft.Gain[i]}
		if nd.feature < 0 {
			if ft.Left[i] != -1 || ft.Right[i] != -1 {
				return nil, fmt.Errorf("tree: leaf %d has children", i)
			}
			return nd, nil
		}
		var err error
		if nd.left, err = build(ft.Left[i], depth+1); err != nil {
			return nil, err
		}
		if nd.right, err = build(ft.Right[i], depth+1); err != nil {
			return nil, err
		}
		return nd, nil
	}
	root, err := build(0, 0)
	if err != nil {
		return nil, err
	}
	for i, u := range used {
		if !u {
			return nil, fmt.Errorf("tree: node %d unreachable from root", i)
		}
	}
	t := &Tree{root: root}
	t.finalize()
	return t, nil
}

// GBRegressorState is the serializable form of a fitted GBRegressor.
type GBRegressorState struct {
	Config BoostConfig `json:"config"`
	Base   float64     `json:"base"`
	Trees  []FlatTree  `json:"trees"`
}

// State snapshots a fitted regressor.
func (g *GBRegressor) State() GBRegressorState {
	st := GBRegressorState{Config: g.cfg, Base: g.base}
	for _, t := range g.trees {
		st.Trees = append(st.Trees, t.Flatten())
	}
	return st
}

// GBRegressorFromState rehydrates a regressor, validating every tree.
// The stored config is used verbatim (it was normalized at fit time), so
// predictions are bitwise identical to the snapshotted model's.
func GBRegressorFromState(st GBRegressorState) (*GBRegressor, error) {
	g := &GBRegressor{cfg: st.Config, base: st.Base}
	for i, fn := range st.Trees {
		t, err := TreeFromFlat(fn)
		if err != nil {
			return nil, fmt.Errorf("tree: GBRegressor tree %d: %w", i, err)
		}
		g.trees = append(g.trees, t)
	}
	return g, nil
}

// GBDTState is the serializable form of a fitted GBDT classifier.
type GBDTState struct {
	Config  BoostConfig  `json:"config"`
	Classes int          `json:"classes"`
	Prior   []float64    `json:"prior"`
	Trees   [][]FlatTree `json:"trees"` // [round][class]
}

// State snapshots a fitted classifier.
func (g *GBDT) State() GBDTState {
	st := GBDTState{Config: g.cfg, Classes: g.classes, Prior: g.prior}
	for _, round := range g.trees {
		var r []FlatTree
		for _, t := range round {
			r = append(r, t.Flatten())
		}
		st.Trees = append(st.Trees, r)
	}
	return st
}

// GBDTFromState rehydrates a classifier, validating the class/prior/tree
// shape agreement so a payload whose ensemble disagrees with its declared
// class count errors instead of mispredicting.
func GBDTFromState(st GBDTState) (*GBDT, error) {
	if st.Classes < 2 {
		return nil, fmt.Errorf("tree: GBDT state with %d classes", st.Classes)
	}
	if len(st.Prior) != st.Classes {
		return nil, fmt.Errorf("tree: GBDT state has %d priors for %d classes", len(st.Prior), st.Classes)
	}
	g := &GBDT{cfg: st.Config, classes: st.Classes, prior: st.Prior}
	for ri, round := range st.Trees {
		if len(round) != st.Classes {
			return nil, fmt.Errorf("tree: GBDT round %d has %d trees for %d classes", ri, len(round), st.Classes)
		}
		var r []*Tree
		for ci, fn := range round {
			t, err := TreeFromFlat(fn)
			if err != nil {
				return nil, fmt.Errorf("tree: GBDT round %d class %d: %w", ri, ci, err)
			}
			r = append(r, t)
		}
		g.trees = append(g.trees, r)
	}
	return g, nil
}
