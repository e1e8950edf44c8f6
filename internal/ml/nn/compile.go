package nn

import (
	"fmt"

	"stencilmart/internal/linalg"
	"stencilmart/internal/ml"
)

// This file is the float32 inference lane of the neural networks: a
// trained Classifier/Regressor compiles once (at checkpoint load /
// registry publish time) into the same layer stack at float32.
// Quantization happens exactly once, here: every weight and bias rounds
// to the nearest float32; rows arrive already converted by the caller.
// The forward pass is forward.go's, instantiated at float32. Compiled
// models share nothing with their float64 source and, like it, are not
// safe for concurrent use on one instance.

// laneWorkers is the workers argument of every f32 forward: the serving
// tier's one lane goroutine scores a few rows at a time, kernel calls
// tens of microseconds long, so a forward pass stays on that goroutine —
// nothing is handed to the pool (linalg's forRanges says why) and a warm
// pass allocates nothing.
const laneWorkers = 1

// quantize converts one float64 weight block to a fresh float32 slice.
func quantize(w []float64) []float32 {
	out := make([]float32, len(w))
	for i, v := range w {
		out[i] = float32(v)
	}
	return out
}

// quantized (on every training layer) rebuilds the layer's forward body
// at float32 over its rounded weights.
func (d *Dense) quantized() layer[float32] {
	q := newDenseForward(d.in, d.out, quantize(d.w.W), quantize(d.b.W))
	return &q
}

func (r *ReLU) quantized() layer[float32] { return &relu[float32]{} }

func (c *Conv) quantized() layer[float32] {
	q := newConvForward(c.outC, c.shape, quantize(c.weight.W), quantize(c.bias.W))
	return &q
}

func (t *TwoBranch) quantized() layer[float32] {
	return &twoBranch[float32, stack[float32]]{splitAt: t.splitAt, a: t.a.quantized(), b: t.b.quantized()}
}

func (n *Network) quantized() stack[float32] {
	out := make(stack[float32], len(n.layers))
	for i, l := range n.layers {
		out[i] = l.quantized()
	}
	return out
}

// CompiledClassifier is the float32 inference form of a trained
// Classifier; it implements ml.ClassifierF32.
type CompiledClassifier struct {
	net     stack[float32]
	classes int
	in      *linalg.MatrixF32
}

// CompileF32 snapshots the trained classifier's weights into a compiled
// f32 forward pass. The receiver is unchanged and stays the float64
// reference lane.
func (c *Classifier) CompileF32() (*CompiledClassifier, error) {
	if c.classes < 2 {
		return nil, fmt.Errorf("nn: compile of classifier with %d classes", c.classes)
	}
	return &CompiledClassifier{net: c.Net.quantized(), classes: c.classes}, nil
}

// Classes implements ml.ClassifierF32.
func (c *CompiledClassifier) Classes() int { return c.classes }

// PredictProbaBatchF32 implements ml.ClassifierF32: one forward pass for
// the whole row set, softmax per row into the flat
// (len(rows) x Classes()) out buffer. Warm calls allocate nothing.
func (c *CompiledClassifier) PredictProbaBatchF32(rows [][]float32, out []float32) {
	if len(out) != len(rows)*c.classes {
		panic(fmt.Sprintf("nn: f32 proba out %d, want %d", len(out), len(rows)*c.classes))
	}
	if len(rows) == 0 {
		return
	}
	c.in = packAll(c.in, rows)
	scores := c.net.forward(c.in, laneWorkers)
	if scores.Cols != c.classes {
		panic(fmt.Sprintf("nn: f32 classifier emits %d scores for %d classes", scores.Cols, c.classes))
	}
	for i := range rows {
		ml.Softmax(out[i*c.classes:(i+1)*c.classes], scores.Row(i))
	}
}

// CompiledRegressor is the float32 inference form of a trained Regressor;
// it implements ml.RegressorF32.
type CompiledRegressor struct {
	net stack[float32]
	in  *linalg.MatrixF32
}

// CompileF32 snapshots the trained regressor's weights into a compiled
// f32 forward pass. The receiver is unchanged and stays the float64
// reference lane.
func (r *Regressor) CompileF32() (*CompiledRegressor, error) {
	return &CompiledRegressor{net: r.Net.quantized()}, nil
}

// PredictValueBatchF32 implements ml.RegressorF32: one forward pass, the
// scalar head copied per row into out (len(rows)). Warm calls allocate
// nothing.
func (r *CompiledRegressor) PredictValueBatchF32(rows [][]float32, out []float32) {
	if len(out) != len(rows) {
		panic(fmt.Sprintf("nn: f32 regression out %d, want %d", len(out), len(rows)))
	}
	if len(rows) == 0 {
		return
	}
	r.in = packAll(r.in, rows)
	vals := r.net.forward(r.in, laneWorkers)
	for i := range rows {
		out[i] = vals.Row(i)[0]
	}
}
