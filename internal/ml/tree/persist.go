package tree

import (
	"fmt"
	"math"

	"stencilmart/internal/persist"
)

// FlatTree is one serialized tree: its nodes in preorder as parallel
// columns, row i of every column being node i — the in-memory layout
// (nodes.go) in wire types. Child indices, not nesting, let
// reconstruction validate structure (bounds, acyclicity, full coverage)
// before any prediction runs; columns keep a node to a few bytes and
// decode without reflection.
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

// Flatten serializes the tree: the node columns, copied into wire types.
func (t *Tree) Flatten() FlatTree { return flatten(&t.nodes) }

func flatten(n *nodes[float64]) FlatTree {
	widen := func(col []int32) persist.Ints {
		out := make(persist.Ints, len(col))
		for i, v := range col {
			out[i] = int(v)
		}
		return out
	}
	return FlatTree{
		Feature:   widen(n.feature),
		Threshold: append(persist.Floats(nil), n.thr...),
		Value:     append(persist.Floats(nil), n.value...),
		Gain:      append(persist.Floats(nil), n.gain...),
		Left:      widen(n.left),
		Right:     widen(n.right),
	}
}

// TreeFromFlat rebuilds a tree from node columns for rows of the given
// width, validating before copying: the columns must be equally long,
// every split feature must index a row (< width) and fit the in-memory
// index type, child indices must stay in bounds, every node must be
// referenced exactly once (no sharing, no cycles, no orphans), internal
// nodes need both children and leaves none, no deeper than maxFlatDepth
// (fitted trees stop at TreeConfig.MaxDepth; the bound keeps a hostile
// chain of nodes from exhausting the stack). A corrupt tree fails here
// rather than mispredicting or indexing past a row.
func TreeFromFlat(ft FlatTree, width int) (*Tree, error) {
	n, err := nodesFromFlat(ft, width)
	if err != nil {
		return nil, err
	}
	return &Tree{n}, nil
}

func nodesFromFlat(ft FlatTree, width int) (nodes[float64], error) {
	var out nodes[float64]
	n := len(ft.Feature)
	if n == 0 {
		return out, fmt.Errorf("tree: empty node array")
	}
	if len(ft.Threshold) != n || len(ft.Value) != n || len(ft.Gain) != n || len(ft.Left) != n || len(ft.Right) != n {
		return out, fmt.Errorf("tree: ragged node columns: %d f, %d t, %d v, %d g, %d l, %d r", n, len(ft.Threshold), len(ft.Value), len(ft.Gain), len(ft.Left), len(ft.Right))
	}
	if n > math.MaxInt32 {
		return out, fmt.Errorf("tree: %d nodes exceed the int32 index range", n)
	}
	used := make([]bool, n)
	var visit func(i, depth int) error
	visit = func(i, depth int) error {
		if i < 0 || i >= n || depth > maxFlatDepth {
			return fmt.Errorf("tree: node index %d outside [0,%d) or deeper than %d", i, n, maxFlatDepth)
		}
		if used[i] {
			return fmt.Errorf("tree: node %d referenced twice", i)
		}
		used[i] = true
		f := ft.Feature[i]
		if f >= width || f != int(int32(f)) {
			return fmt.Errorf("tree: node %d has feature %d: rows have %d, and indices are int32", i, f, width)
		}
		if f < 0 {
			if ft.Left[i] != -1 || ft.Right[i] != -1 {
				return fmt.Errorf("tree: leaf %d has children", i)
			}
			return nil
		}
		if err := visit(ft.Left[i], depth+1); err != nil {
			return err
		}
		return visit(ft.Right[i], depth+1)
	}
	if err := visit(0, 0); err != nil {
		return out, err
	}
	for i, u := range used {
		if !u {
			return out, fmt.Errorf("tree: node %d unreachable from root", i)
		}
	}
	narrow := func(col persist.Ints) []int32 {
		out := make([]int32, n)
		for i, v := range col {
			out[i] = int32(v)
		}
		return out
	}
	return nodes[float64]{
		feature: narrow(ft.Feature), left: narrow(ft.Left), right: narrow(ft.Right),
		thr: append([]float64(nil), ft.Threshold...), value: append([]float64(nil), ft.Value...), gain: append([]float64(nil), ft.Gain...),
	}, nil
}

// GBRegressorState is the serializable form of a fitted GBRegressor.
type GBRegressorState struct {
	Config BoostConfig `json:"config"`
	Base   float64     `json:"base"`
	Trees  []FlatTree  `json:"trees"`
}

// State snapshots a fitted regressor.
func (g *GBRegressor) State() GBRegressorState {
	st := GBRegressorState{Config: g.cfg, Base: g.ens.init[0]}
	for i := range g.ens.trees {
		st.Trees = append(st.Trees, flatten(&g.ens.trees[i]))
	}
	return st
}

// GBRegressorFromState rehydrates a regressor that scores rows of the
// given width, validating every tree. The stored config is used verbatim
// (it was normalized at fit time), so predictions are bitwise identical
// to the snapshotted model's.
func GBRegressorFromState(st GBRegressorState, width int) (*GBRegressor, error) {
	g := &GBRegressor{cfg: st.Config, ens: ensemble[float64]{init: []float64{st.Base}, lr: st.Config.LearningRate}}
	for i, ft := range st.Trees {
		t, err := nodesFromFlat(ft, width)
		if err != nil {
			return nil, fmt.Errorf("tree: GBRegressor tree %d: %w", i, err)
		}
		g.ens.trees = append(g.ens.trees, t)
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
	k := len(g.ens.init)
	st := GBDTState{Config: g.cfg, Classes: k, Prior: g.ens.init}
	for i := range g.ens.trees {
		if i%k == 0 {
			st.Trees = append(st.Trees, nil)
		}
		st.Trees[i/k] = append(st.Trees[i/k], flatten(&g.ens.trees[i]))
	}
	return st
}

// GBDTFromState rehydrates a classifier that scores rows of the given
// width, validating the class/prior/tree shape agreement so a payload
// whose ensemble disagrees with its declared class count errors instead
// of mispredicting.
func GBDTFromState(st GBDTState, width int) (*GBDT, error) {
	if st.Classes < 2 {
		return nil, fmt.Errorf("tree: GBDT state with %d classes", st.Classes)
	}
	if len(st.Prior) != st.Classes {
		return nil, fmt.Errorf("tree: GBDT state has %d priors for %d classes", len(st.Prior), st.Classes)
	}
	g := &GBDT{cfg: st.Config, ens: ensemble[float64]{init: st.Prior, lr: st.Config.LearningRate}}
	for ri, round := range st.Trees {
		if len(round) != st.Classes {
			return nil, fmt.Errorf("tree: GBDT round %d has %d trees for %d classes", ri, len(round), st.Classes)
		}
		for ci, ft := range round {
			t, err := nodesFromFlat(ft, width)
			if err != nil {
				return nil, fmt.Errorf("tree: GBDT round %d class %d: %w", ri, ci, err)
			}
			g.ens.trees = append(g.ens.trees, t)
		}
	}
	return g, nil
}
