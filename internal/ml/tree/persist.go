package tree

import (
	"fmt"

	"stencilmart/internal/persist"
)

// FlatTree is one fitted tree as State reports it: the six node columns
// of nodes.go, preorder, row i of every column being node i. The slices
// are the tree's own, not copies — read, never written.
type FlatTree struct {
	// Feature is the split feature index, or -1 for a leaf.
	Feature []int32 `json:"f"`
	// Threshold is the split threshold (unused for leaves).
	Threshold []float64 `json:"t"`
	// Value is the leaf prediction (unused for internal nodes).
	Value []float64 `json:"v"`
	// Gain is the split gain at internal nodes. Nothing scores with it;
	// it is kept because it is part of the checkpoint format.
	Gain []float64 `json:"g"`
	// Left and Right index the node columns; -1 for leaves.
	Left  []int32 `json:"l"`
	Right []int32 `json:"r"`
}

func flatten(n *nodes[float64]) FlatTree {
	return FlatTree{Feature: n.feature, Threshold: n.thr, Value: n.value, Gain: n.gain, Left: n.left, Right: n.right}
}

// EnsembleState is the part of a fitted ensemble a checkpoint keeps in its
// manifest; the trees' node columns go to its column section.
type EnsembleState struct {
	Config BoostConfig `json:"config"`
	// Init is the score every row starts from: a classifier's log-priors,
	// one per class, or a regressor's single base value.
	Init []float64 `json:"init"`
	// Trees counts the trees whose columns follow: round ascending, class
	// ascending, six columns each in FlatTree's field order.
	Trees int `json:"trees"`
}

// snapshot appends every tree's node columns to c.
func snapshot(cfg BoostConfig, e *ensemble[float64], c *persist.Columns) EnsembleState {
	for i := range e.trees {
		n := &e.trees[i]
		persist.AppendInts(c, n.feature)
		c.AppendFloats(n.thr)
		c.AppendFloats(n.value)
		c.AppendFloats(n.gain)
		persist.AppendInts(c, n.left)
		persist.AppendInts(c, n.right)
	}
	return EnsembleState{Config: cfg, Init: e.init, Trees: len(e.trees)}
}

// restore checks st's config, reads st.Trees trees off the front of c
// straight into their node columns — thr and value into the layout's,
// sized once every tree is read — and finishes them for rows of the given
// width. The config is used verbatim (it was normalized at fit time), so
// predictions are bitwise identical to the snapshotted model's.
func restore(st EnsembleState, c *persist.Columns, width int) (ensemble[float64], error) {
	e := ensemble[float64]{init: st.Init, lr: st.Config.LearningRate}
	if err := st.Config.check(); err != nil {
		return e, err
	}
	var raw []persist.RawFloats // each tree's thr, then its value
	total := [2]int{}
	for i := 0; i < st.Trees; i++ {
		feature := persist.ReadInts[int32](c)
		thr, value := c.TakeFloats(), c.TakeFloats()
		n := nodes[float64]{feature: feature, gain: c.ReadFloats(), left: persist.ReadInts[int32](c), right: persist.ReadInts[int32](c)}
		if err := c.Err(); err != nil {
			return e, fmt.Errorf("tree %d of %d: %w", i, st.Trees, err)
		}
		e.trees = append(e.trees, n)
		raw = append(raw, thr, value)
		total[0], total[1] = total[0]+len(thr)/8, total[1]+len(value)/8
	}
	cols := [2][]float64{make([]float64, total[0]), make([]float64, total[1])}
	at := [2]int{}
	for i := range e.trees {
		for k, dst := range [2]*[]float64{&e.trees[i].thr, &e.trees[i].value} {
			r, end := raw[2*i+k], at[k]+len(raw[2*i+k])/8
			r.Decode(cols[k][at[k]:end])
			*dst, at[k] = cols[k][at[k]:end:end], end
		}
	}
	e.lay.thr, e.lay.value = cols[0], cols[1]
	return e, e.finish(width)
}

// Snapshot appends the fitted regressor's trees to c and returns the
// manifest half of its state.
func (g *GBRegressor) Snapshot(c *persist.Columns) EnsembleState { return snapshot(g.cfg, &g.ens, c) }

// GBRegressorFromSnapshot rehydrates a regressor that scores rows of the
// given width from its manifest state and the next columns of c.
func GBRegressorFromSnapshot(st EnsembleState, c *persist.Columns, width int) (*GBRegressor, error) {
	if len(st.Init) != 1 {
		return nil, fmt.Errorf("tree: GBRegressor state has %d base values", len(st.Init))
	}
	ens, err := restore(st, c, width)
	if err != nil {
		return nil, fmt.Errorf("tree: GBRegressor %w", err)
	}
	return &GBRegressor{cfg: st.Config, ens: ens}, nil
}

// Snapshot appends the fitted classifier's trees to c and returns the
// manifest half of its state.
func (g *GBDT) Snapshot(c *persist.Columns) EnsembleState { return snapshot(g.cfg, &g.ens, c) }

// GBDTFromSnapshot rehydrates a classifier that scores rows of the given
// width, validating the prior/tree shape agreement so a state whose
// ensemble disagrees with its class count errors instead of mispredicting.
func GBDTFromSnapshot(st EnsembleState, c *persist.Columns, width int) (*GBDT, error) {
	if k := len(st.Init); k < 2 || st.Trees%k != 0 {
		return nil, fmt.Errorf("tree: GBDT state has %d trees for %d classes", st.Trees, k)
	}
	ens, err := restore(st, c, width)
	if err != nil {
		return nil, fmt.Errorf("tree: GBDT %w", err)
	}
	return &GBDT{cfg: st.Config, ens: ens}, nil
}

// GBRegressorState is a fitted GBRegressor laid open for inspection and
// for tests that pin its bits.
type GBRegressorState struct {
	Config BoostConfig `json:"config"`
	Base   float64     `json:"base"`
	Trees  []FlatTree  `json:"trees"`
}

// State exposes a fitted regressor.
func (g *GBRegressor) State() GBRegressorState {
	st := GBRegressorState{Config: g.cfg, Base: g.ens.init[0]}
	for i := range g.ens.trees {
		st.Trees = append(st.Trees, flatten(&g.ens.trees[i]))
	}
	return st
}

// GBDTState is a fitted GBDT classifier laid open the same way.
type GBDTState struct {
	Config  BoostConfig  `json:"config"`
	Classes int          `json:"classes"`
	Prior   []float64    `json:"prior"`
	Trees   [][]FlatTree `json:"trees"` // [round][class]
}

// State exposes a fitted classifier.
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
