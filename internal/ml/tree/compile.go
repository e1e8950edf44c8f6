package tree

import "fmt"

// This file is the float32 inference lane of the tree ensembles: a fitted
// GBDT/GBRegressor compiles once (at checkpoint load / registry publish
// time) into the same ensemble form in float32, every threshold and leaf
// value (and the prior and learning rate) rounded to the nearest float32,
// and scores batches into caller-provided buffers with zero heap
// allocations. Descent, accumulation order and softmax are the float64
// lane's own code instantiated at float32.

// toF32 rounds one float64 column to a fresh float32 column.
func toF32(col []float64) []float32 {
	out := make([]float32, len(col))
	for i, v := range col {
		out[i] = float32(v)
	}
	return out
}

// quantize rounds the finished ensemble's thresholds and leaf values to
// float32 once, layout-wide; each tree's are views into the result. The
// index columns are shared with the source, which never writes them again.
func quantize(e *ensemble[float64]) ensemble[float32] {
	l := e.lay
	q := ensemble[float32]{trees: make([]nodes[float32], 0, len(e.trees)), init: toF32(e.init), lr: float32(e.lr),
		lay: layout[float32]{feature: l.feature, kids: l.kids, roots: l.roots, steps: l.steps, thr: toF32(l.thr), value: toF32(l.value)}}
	for i, t := range e.trees {
		lo, hi := l.roots[i], l.roots[i]+int32(len(t.feature))
		q.trees = append(q.trees, nodes[float32]{feature: t.feature, left: t.left, right: t.right, thr: q.lay.thr[lo:hi:hi], value: q.lay.value[lo:hi:hi]})
	}
	return q
}

// CompiledEnsemble is the float32 inference form of a fitted GBRegressor.
type CompiledEnsemble struct {
	ens ensemble[float32]
}

// Compile quantizes the fitted ensemble into its float32 inference form.
// The receiver is unchanged and stays the float64 reference lane.
func (g *GBRegressor) Compile() (*CompiledEnsemble, error) {
	if len(g.ens.trees) == 0 {
		return nil, fmt.Errorf("tree: compile of unfitted GBRegressor")
	}
	return &CompiledEnsemble{quantize(&g.ens)}, nil
}

// PredictValueBatchF32 implements ml.RegressorF32. It allocates nothing.
func (c *CompiledEnsemble) PredictValueBatchF32(rows [][]float32, out []float32) {
	if len(out) != len(rows) {
		panic(fmt.Sprintf("tree: f32 regression out %d, want %d", len(out), len(rows)))
	}
	c.ens.scoreInto(rows, out)
}

// CompiledGBDT is the float32 inference form of a fitted GBDT.
type CompiledGBDT struct {
	ens ensemble[float32]
}

// Compile quantizes the fitted classifier into its float32 inference
// form. The receiver is unchanged and stays the float64 reference lane.
func (g *GBDT) Compile() (*CompiledGBDT, error) {
	if len(g.ens.trees) == 0 {
		return nil, fmt.Errorf("tree: compile of unfitted GBDT")
	}
	return &CompiledGBDT{quantize(&g.ens)}, nil
}

// Classes implements ml.ClassifierF32.
func (c *CompiledGBDT) Classes() int { return len(c.ens.init) }

// PredictProbaBatchF32 implements ml.ClassifierF32; out is flat
// row-major len(rows)*Classes(). It allocates nothing.
func (c *CompiledGBDT) PredictProbaBatchF32(rows [][]float32, out []float32) {
	if len(out) != len(rows)*c.Classes() {
		panic(fmt.Sprintf("tree: f32 proba out %d, want %d", len(out), len(rows)*c.Classes()))
	}
	c.ens.probaInto(rows, out)
}
