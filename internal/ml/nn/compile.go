package nn

import (
	"fmt"

	"stencilmart/internal/linalg"
	"stencilmart/internal/ml"
)

// This file is the float32 inference lane of the neural networks: a
// trained Classifier/Regressor compiles once (at checkpoint load /
// registry publish time) into forward-only layers over float32 weight
// snapshots, scoring batches through the serial f32 GEMM kernels into
// caller-provided buffers. Quantization happens exactly once, at compile
// time: every weight and bias rounds to the nearest float32; rows arrive
// already converted by the caller. Each compiled layer owns grow-only
// scratch reused across batches, so a warm forward pass allocates
// nothing. Compiled models share nothing with their float64 source and,
// like it, are not safe for concurrent use on one instance.

// compiledLayer is one forward-only f32 layer. forward returns
// layer-owned scratch valid until the next call.
type compiledLayer interface {
	forward(x *linalg.MatrixF32) *linalg.MatrixF32
}

// compiledNetwork is a sequential compiledLayer stack.
type compiledNetwork struct {
	layers []compiledLayer
}

func (n *compiledNetwork) forward(x *linalg.MatrixF32) *linalg.MatrixF32 {
	for _, l := range n.layers {
		x = l.forward(x)
	}
	return x
}

// compiledDense mirrors Dense.Forward: one GEMM plus a bias add.
type compiledDense struct {
	in, out int
	w       *linalg.MatrixF32 // (in x out)
	b       []float32
	act     *linalg.MatrixF32
}

func (d *compiledDense) forward(x *linalg.MatrixF32) *linalg.MatrixF32 {
	if x.Cols != d.in {
		panic(fmt.Sprintf("nn: dense expects width %d, got %d", d.in, x.Cols))
	}
	d.act = linalg.ResizeF32(d.act, x.Rows, d.out)
	linalg.GemmF32(d.act, x, d.w)
	for i := 0; i < x.Rows; i++ {
		o := d.act.Row(i)
		for k, b := range d.b {
			o[k] += b
		}
	}
	return d.act
}

// compiledReLU mirrors ReLU.Forward without the backward mask.
type compiledReLU struct {
	act *linalg.MatrixF32
}

func (r *compiledReLU) forward(x *linalg.MatrixF32) *linalg.MatrixF32 {
	r.act = linalg.ResizeF32(r.act, x.Rows, x.Cols)
	for j, v := range x.Data {
		if v > 0 {
			r.act.Data[j] = v
		} else {
			r.act.Data[j] = 0
		}
	}
	return r.act
}

// compiledConv mirrors Conv.Forward: im2col, one GEMM against the
// (outC x patch) weight matrix, then the per-sample transpose to
// channel-major activations with the bias added.
type compiledConv struct {
	outC  int
	shape linalg.ConvShape
	m, k  int
	w     *linalg.MatrixF32 // (outC x k)
	b     []float32

	col, prod, act *linalg.MatrixF32
}

func (c *compiledConv) forward(x *linalg.MatrixF32) *linalg.MatrixF32 {
	if x.Cols != c.shape.InLen() {
		panic(fmt.Sprintf("nn: conv expects width %d, got %d", c.shape.InLen(), x.Cols))
	}
	n := x.Rows
	c.col = linalg.ResizeF32(c.col, n*c.m, c.k)
	for i := 0; i < n; i++ {
		c.shape.Im2colF32(x.Row(i), c.col, i*c.m)
	}
	c.prod = linalg.ResizeF32(c.prod, n*c.m, c.outC)
	linalg.GemmNTF32(c.prod, c.col, c.w)
	c.act = linalg.ResizeF32(c.act, n, c.outC*c.m)
	for i := 0; i < n; i++ {
		o := c.act.Row(i)
		block := c.prod.Data[i*c.m*c.outC : (i+1)*c.m*c.outC]
		for oc := 0; oc < c.outC; oc++ {
			b := c.b[oc]
			dst := o[oc*c.m : (oc+1)*c.m]
			for m := range dst {
				dst[m] = block[m*c.outC+oc] + b
			}
		}
	}
	return c.act
}

// compiledTwoBranch mirrors TwoBranch.Forward: split, both branches,
// concatenate.
type compiledTwoBranch struct {
	splitAt int
	a, b    *compiledNetwork

	xa, xb, act *linalg.MatrixF32
}

func (t *compiledTwoBranch) forward(x *linalg.MatrixF32) *linalg.MatrixF32 {
	if x.Cols < t.splitAt {
		panic(fmt.Sprintf("nn: two-branch expects >= %d features, got %d", t.splitAt, x.Cols))
	}
	n := x.Rows
	t.xa = linalg.ResizeF32(t.xa, n, t.splitAt)
	t.xb = linalg.ResizeF32(t.xb, n, x.Cols-t.splitAt)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		copy(t.xa.Row(i), row[:t.splitAt])
		copy(t.xb.Row(i), row[t.splitAt:])
	}
	oa := t.a.forward(t.xa)
	ob := t.b.forward(t.xb)
	t.act = linalg.ResizeF32(t.act, n, oa.Cols+ob.Cols)
	for i := 0; i < n; i++ {
		o := t.act.Row(i)
		copy(o, oa.Row(i))
		copy(o[oa.Cols:], ob.Row(i))
	}
	return t.act
}

// quantize converts one float64 weight block to a fresh float32 slice.
func quantize(w []float64) []float32 {
	out := make([]float32, len(w))
	for i, v := range w {
		out[i] = float32(v)
	}
	return out
}

// compileLayer snapshots one trained layer into its forward-only f32
// form.
func compileLayer(l Layer) (compiledLayer, error) {
	switch t := l.(type) {
	case *Dense:
		return &compiledDense{
			in: t.in, out: t.out,
			w: &linalg.MatrixF32{Rows: t.in, Cols: t.out, Data: quantize(t.w.W)},
			b: quantize(t.b.W),
		}, nil
	case *ReLU:
		return &compiledReLU{}, nil
	case *Conv:
		return &compiledConv{
			outC: t.outC, shape: t.shape, m: t.m, k: t.k,
			w: &linalg.MatrixF32{Rows: t.outC, Cols: t.k, Data: quantize(t.weight.W)},
			b: quantize(t.bias.W),
		}, nil
	case *TwoBranch:
		a, err := compileNetwork(t.a)
		if err != nil {
			return nil, err
		}
		b, err := compileNetwork(t.b)
		if err != nil {
			return nil, err
		}
		return &compiledTwoBranch{splitAt: t.splitAt, a: a, b: b}, nil
	default:
		return nil, fmt.Errorf("nn: cannot compile layer %T for the f32 lane", l)
	}
}

func compileNetwork(n *Network) (*compiledNetwork, error) {
	out := &compiledNetwork{layers: make([]compiledLayer, 0, len(n.layers))}
	for _, l := range n.layers {
		cl, err := compileLayer(l)
		if err != nil {
			return nil, err
		}
		out.layers = append(out.layers, cl)
	}
	return out, nil
}

// packAllF32 packs rows into the reusable input matrix.
func packAllF32(m *linalg.MatrixF32, rows [][]float32) *linalg.MatrixF32 {
	m = linalg.ResizeF32(m, len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("nn: f32 row %d width %d, want %d", i, len(r), m.Cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// CompiledClassifier is the float32 inference form of a trained
// Classifier; it implements ml.ClassifierF32.
type CompiledClassifier struct {
	net     *compiledNetwork
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
	net, err := compileNetwork(c.Net)
	if err != nil {
		return nil, err
	}
	return &CompiledClassifier{net: net, classes: c.classes}, nil
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
	c.in = packAllF32(c.in, rows)
	scores := c.net.forward(c.in)
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
	net *compiledNetwork
	in  *linalg.MatrixF32
}

// CompileF32 snapshots the trained regressor's weights into a compiled
// f32 forward pass. The receiver is unchanged and stays the float64
// reference lane.
func (r *Regressor) CompileF32() (*CompiledRegressor, error) {
	net, err := compileNetwork(r.Net)
	if err != nil {
		return nil, err
	}
	return &CompiledRegressor{net: net}, nil
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
	r.in = packAllF32(r.in, rows)
	vals := r.net.forward(r.in)
	for i := range rows {
		out[i] = vals.Row(i)[0]
	}
}
