package nn

import (
	"fmt"
	"math/rand"

	"stencilmart/internal/linalg"
)

// The training layers: each embeds its forward body from forward.go at
// float64 — the weight views alias the Param blocks Adam updates in
// place — and adds the parameters' gradient accumulators, the backward
// pass and its scratch.

// Dense is a fully connected layer: out = x*W + b, one GEMM per
// direction. The weight block is viewed as an (in x out) matrix; the
// backward pass computes input gradients with GemmNT and accumulates
// weight gradients with GemmTNAcc — both bitwise deterministic at any
// worker count.
type Dense struct {
	dense[float64]
	w, b  *Param
	lastX *linalg.Matrix
	dx    *linalg.Matrix // reusable input-gradient scratch
}

// NewDense builds a dense layer with He initialization.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{w: newParam(in * out), b: newParam(out)}
	d.dense = newDenseForward(in, out, d.w.W, d.b.W)
	heInit(d.w.W, in, rng)
	return d
}

// forward implements Layer, keeping the input for Backward's weight
// gradient.
func (d *Dense) forward(x *linalg.Matrix, workers int) *linalg.Matrix {
	d.lastX = x
	return d.dense.forward(x, workers)
}

// Backward implements Layer.
func (d *Dense) Backward(grad *linalg.Matrix) *linalg.Matrix {
	if grad.Cols != d.out {
		panic(fmt.Sprintf("nn: dense gradient width %d, want %d", grad.Cols, d.out))
	}
	d.dx = linalg.Resize(d.dx, grad.Rows, d.in)
	linalg.GemmNT(d.dx, grad, d.wMat, 0)
	linalg.GemmTNAcc(&linalg.Matrix{Rows: d.in, Cols: d.out, Data: d.w.G}, d.lastX, grad, 0)
	linalg.AddColSums(d.b.G, grad, 0)
	return d.dx
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// ReLU is the rectified linear activation. Backward gates the gradient
// on the forward activations: an output is positive exactly where the
// input was.
type ReLU struct {
	relu[float64]
	dx *linalg.Matrix
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Backward implements Layer.
func (r *ReLU) Backward(grad *linalg.Matrix) *linalg.Matrix {
	r.dx = linalg.Resize(r.dx, grad.Rows, grad.Cols)
	linalg.ForRows(grad.Rows, 0, gate[float64]{r.dx, grad, r.act})
	return r.dx
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Conv is a valid-padding, stride-1 convolution over a (C, D, H, W)
// volume; D == 1 with KD == 1 yields the 2-D case. Rows are flattened in
// C-major, then D, H, W order. Forward lowers the whole batch into one
// patch matrix (kept for the backward pass) and multiplies it against
// the weight matrix; Backward recovers input gradients through one GEMM
// plus col2im and weight gradients through a single GemmTNAcc over the
// saved patch matrix.
type Conv struct {
	conv[float64]
	weight *Param // [outC][inC][kd][kh][kw]
	bias   *Param

	gcols   *linalg.Matrix // (n*m x outC) transposed output gradients
	colGrad *linalg.Matrix // (n*m x k) patch-space input gradients
	dx      *linalg.Matrix // (n x inLen) input gradients
}

// NewConv2D builds a 2-D convolution over an h x w single-plane input.
func NewConv2D(inC, outC, h, w, k int, rng *rand.Rand) *Conv {
	return newConv(inC, outC, 1, h, w, 1, k, k, rng)
}

// NewConv3D builds a 3-D convolution over a d x h x w volume.
func NewConv3D(inC, outC, d, h, w, k int, rng *rand.Rand) *Conv {
	return newConv(inC, outC, d, h, w, k, k, k, rng)
}

func newConv(inC, outC, d, h, w, kd, kh, kw int, rng *rand.Rand) *Conv {
	shape := linalg.ConvShape{InC: inC, D: d, H: h, W: w, KD: kd, KH: kh, KW: kw}
	if err := shape.Validate(); err != nil {
		panic(fmt.Sprintf("nn: conv kernel %dx%dx%d larger than input %dx%dx%d", kd, kh, kw, d, h, w))
	}
	c := &Conv{weight: newParam(outC * shape.KernelLen()), bias: newParam(outC)}
	c.conv = newConvForward(outC, shape, c.weight.W, c.bias.W)
	heInit(c.weight.W, shape.KernelLen(), rng)
	return c
}

// Backward implements Layer.
func (c *Conv) Backward(grad *linalg.Matrix) *linalg.Matrix {
	if grad.Cols != c.outWidth() {
		panic(fmt.Sprintf("nn: conv gradient width %d, want %d", grad.Cols, c.outWidth()))
	}
	n := grad.Rows
	// Transpose gradients to (n*m x outC) — the layout every GEMM below
	// consumes.
	c.gcols = linalg.Resize(c.gcols, n*c.m, c.outC)
	linalg.ForRows(n, 0, convGradCols{c, grad})
	// Input gradients: patch-space gradients in one GEMM, scattered back
	// per sample by the im2col adjoint.
	c.colGrad = linalg.Resize(c.colGrad, n*c.m, c.k)
	linalg.Gemm(c.colGrad, c.gcols, c.wMat, 0)
	c.dx = linalg.Resize(c.dx, n, c.shape.InLen())
	linalg.ForRows(n, 0, convScatter{c})
	// Parameter gradients: one GEMM over the saved patch matrix plus a
	// column-sum reduction, both accumulating deterministically.
	linalg.GemmTNAcc(&linalg.Matrix{Rows: c.outC, Cols: c.k, Data: c.weight.G}, c.gcols, c.col, 0)
	linalg.AddColSums(c.bias.G, c.gcols, 0)
	return c.dx
}

// convGradCols is convEmit's inverse on gradients: each sample's
// channel-major gradient row becomes an (m x outC) block of c.gcols.
type convGradCols struct {
	c    *Conv
	grad *linalg.Matrix
}

func (k convGradCols) Rows(lo, hi int) {
	c := k.c
	for i := lo; i < hi; i++ {
		g := k.grad.Row(i)
		block := c.gcols.Data[i*c.m*c.outC : (i+1)*c.m*c.outC]
		for oc := 0; oc < c.outC; oc++ {
			src := g[oc*c.m : (oc+1)*c.m]
			for m, v := range src {
				block[m*c.outC+oc] = v
			}
		}
	}
}

// convScatter is convLower's adjoint: each sample's patch-space
// gradient rows scatter-add onto its zeroed row of c.dx.
type convScatter struct{ c *Conv }

func (k convScatter) Rows(lo, hi int) {
	c := k.c
	for i := lo; i < hi; i++ {
		dxi := c.dx.Row(i)
		clear(dxi)
		linalg.Col2im(c.shape, c.colGrad, i*c.m, dxi)
	}
}

// Params implements Layer.
func (c *Conv) Params() []*Param { return []*Param{c.weight, c.bias} }
