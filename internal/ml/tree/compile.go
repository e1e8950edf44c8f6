package tree

import "fmt"

// This file is the float32 inference lane of the tree ensembles: fitted
// GBDT/GBRegressor models compile once (at checkpoint load / registry
// publish time) into the same ensemble form in float32 and score batches
// into caller-provided buffers with zero heap allocations. Quantization
// happens exactly once, at compile time: every threshold and leaf value
// (plus the prior and learning rate) is rounded to the nearest float32.
// Descent, accumulation order and softmax are the float64 lane's own
// code instantiated at float32.

// toF32 rounds one float64 column to a fresh float32 column.
func toF32(col []float64) []float32 {
	out := make([]float32, len(col))
	for i, v := range col {
		out[i] = float32(v)
	}
	return out
}

// quantize rounds the ensemble's numeric columns to float32. The index
// columns are shared with the source, which never writes them again.
func quantize(e *ensemble[float64]) ensemble[float32] {
	q := ensemble[float32]{trees: make([]nodes[float32], len(e.trees)), init: toF32(e.init), lr: float32(e.lr)}
	for i := range e.trees {
		t := &e.trees[i]
		q.trees[i] = nodes[float32]{feature: t.feature, left: t.left, right: t.right, thr: toF32(t.thr), value: toF32(t.value)}
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

// NumTrees returns the compiled ensemble size.
func (c *CompiledEnsemble) NumTrees() int { return len(c.ens.trees) }

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
