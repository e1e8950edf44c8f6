package nn

import (
	"fmt"
	"math"

	"stencilmart/internal/linalg"
)

// This file is the one forward pass of the package: each layer kind's
// forward body, written once over the element type. Training and the
// float64 reference lane run it at float64 (the training layers in
// layers.go embed these types and add only what Backward needs); the
// f32 serving lane runs the same bodies at float32 over weights rounded
// once (compile.go). workers is linalg's argument: 0 fans tiles and row
// ranges out on the shared pool, 1 runs everything inline on the
// caller's goroutine. Each layer owns grow-only scratch reused across
// batches, so a warm forward at workers 1 allocates nothing.

// layer is one forward stage. The returned matrix is layer-owned
// scratch, valid until the next call on the same layer.
type layer[T linalg.Float] interface {
	forward(x *linalg.Mat[T], workers int) *linalg.Mat[T]
}

// stack is a sequential layer list; an empty stack is the identity.
type stack[T linalg.Float] []layer[T]

func (s stack[T]) forward(x *linalg.Mat[T], workers int) *linalg.Mat[T] {
	for _, l := range s {
		x = l.forward(x, workers)
	}
	return x
}

// dense is out = x·W + b: one GEMM plus a bias add.
type dense[T linalg.Float] struct {
	in, out int
	wMat    *linalg.Mat[T] // (in x out)
	bVec    []T
	act     *linalg.Mat[T]
}

func newDenseForward[T linalg.Float](in, out int, w, b []T) dense[T] {
	return dense[T]{in: in, out: out, wMat: &linalg.Mat[T]{Rows: in, Cols: out, Data: w}, bVec: b}
}

func (d *dense[T]) forward(x *linalg.Mat[T], workers int) *linalg.Mat[T] {
	if x.Cols != d.in {
		panic(fmt.Sprintf("nn: dense expects width %d, got %d", d.in, x.Cols))
	}
	d.act = linalg.Resize(d.act, x.Rows, d.out)
	linalg.Gemm(d.act, x, d.wMat, workers)
	linalg.ForRows(x.Rows, workers, addBias[T]{d.act, d.bVec})
	return d.act
}

type addBias[T linalg.Float] struct {
	act *linalg.Mat[T]
	b   []T
}

func (k addBias[T]) Rows(lo, hi int) {
	for i := lo; i < hi; i++ {
		o := k.act.Row(i)
		for j, b := range k.b {
			o[j] += b
		}
	}
}

// relu is the rectified linear activation.
type relu[T linalg.Float] struct {
	act *linalg.Mat[T]
}

func (r *relu[T]) forward(x *linalg.Mat[T], workers int) *linalg.Mat[T] {
	r.act = linalg.Resize(r.act, x.Rows, x.Cols)
	linalg.ForRows(x.Rows, workers, gate[T]{r.act, x, x})
	return r.act
}

// gate copies val where on is positive and writes zero elsewhere: ReLU
// forward gates the input on itself, ReLU backward the gradient on the
// activations.
type gate[T linalg.Float] struct{ dst, val, on *linalg.Mat[T] }

func (k gate[T]) Rows(lo, hi int) {
	lo, hi = lo*k.val.Cols, hi*k.val.Cols
	dst, val, on := k.dst.Data[lo:hi], k.val.Data[lo:hi], k.on.Data[lo:hi]
	for j, v := range on {
		if v > 0 {
			dst[j] = val[j]
		} else {
			dst[j] = 0
		}
	}
}

// conv is a valid-padding, stride-1 convolution over a (C, D, H, W)
// volume, run as im2col + GEMM: the whole batch is lowered into one
// patch matrix, multiplied against the (outC x patch) weight matrix, and
// each sample's (m x outC) product block is transposed to the
// channel-major activation layout with the bias added.
type conv[T linalg.Float] struct {
	outC  int
	shape linalg.ConvShape
	m, k  int            // output points per channel / patch width
	wMat  *linalg.Mat[T] // (outC x k), columns in Im2col's order
	bVec  []T

	col  *linalg.Mat[T] // (n*m x k) patch matrix
	prod *linalg.Mat[T] // (n*m x outC) GEMM product
	act  *linalg.Mat[T] // (n x outC*m) channel-major activations
}

func newConvForward[T linalg.Float](outC int, shape linalg.ConvShape, w, b []T) conv[T] {
	k := shape.KernelLen()
	return conv[T]{
		outC: outC, shape: shape, m: shape.OutSpatial(), k: k,
		wMat: &linalg.Mat[T]{Rows: outC, Cols: k, Data: w}, bVec: b,
	}
}

// outWidth is the flat activation width.
func (c *conv[T]) outWidth() int { return c.outC * c.m }

func (c *conv[T]) forward(x *linalg.Mat[T], workers int) *linalg.Mat[T] {
	if x.Cols != c.shape.InLen() {
		panic(fmt.Sprintf("nn: conv expects width %d, got %d", c.shape.InLen(), x.Cols))
	}
	n := x.Rows
	c.col = linalg.Resize(c.col, n*c.m, c.k)
	linalg.ForRows(n, workers, convLower[T]{c, x})
	c.prod = linalg.Resize(c.prod, n*c.m, c.outC)
	linalg.GemmNT(c.prod, c.col, c.wMat, workers)
	c.act = linalg.Resize(c.act, n, c.outWidth())
	linalg.ForRows(n, workers, convEmit[T]{c})
	return c.act
}

// convLower writes each sample's patch rows into c.col.
type convLower[T linalg.Float] struct {
	c *conv[T]
	x *linalg.Mat[T]
}

func (k convLower[T]) Rows(lo, hi int) {
	for i := lo; i < hi; i++ {
		linalg.Im2col(k.c.shape, k.x.Row(i), k.c.col, i*k.c.m)
	}
}

// convEmit transposes each sample's product block into c.act, adding
// the bias.
type convEmit[T linalg.Float] struct{ c *conv[T] }

func (k convEmit[T]) Rows(lo, hi int) {
	c := k.c
	for i := lo; i < hi; i++ {
		o := c.act.Row(i)
		block := c.prod.Data[i*c.m*c.outC : (i+1)*c.m*c.outC]
		for oc := 0; oc < c.outC; oc++ {
			b := c.bVec[oc]
			dst := o[oc*c.m : (oc+1)*c.m]
			for m := range dst {
				dst[m] = block[m*c.outC+oc] + b
			}
		}
	}
}

// twoBranch routes the first splitAt columns through branch a and the
// rest through branch b, then concatenates the outputs — the ConvMLP
// merge of Fig. 8. A run of consecutive rows whose first splitAt values
// are the same bits goes through branch a as one row: the cross-GPU
// regressor scores one tuned stencil per catalog GPU, so a request's
// rows share their tensor. Rows score independently, so each still gets
// what it would alone. perRow turns the fold off — trainLoop sets it,
// because Backward reads branch a's per-row scratch.
type twoBranch[T linalg.Float, B layer[T]] struct {
	splitAt int
	perRow  bool
	a, b    B

	at          []int // at[i]: the row of branch a's batch that row i reads
	xa, xb, act *linalg.Mat[T]
}

func (t *twoBranch[T, B]) forward(x *linalg.Mat[T], workers int) *linalg.Mat[T] {
	if x.Cols < t.splitAt {
		panic(fmt.Sprintf("nn: two-branch expects >= %d features, got %d", t.splitAt, x.Cols))
	}
	n := x.Rows
	t.at = t.at[:0]
	runs := 0
	for i := 0; i < n; i++ {
		if i == 0 || t.perRow || !sameBits(x.Row(i)[:t.splitAt], x.Row(i - 1)[:t.splitAt]) {
			runs++
		}
		t.at = append(t.at, runs-1)
	}
	t.xa = linalg.Resize(t.xa, runs, t.splitAt)
	t.xb = linalg.Resize(t.xb, n, x.Cols-t.splitAt)
	linalg.ForRows(n, workers, splitCols[T]{x, t.xa, t.xb, t.at})
	oa := t.a.forward(t.xa, workers)
	ob := t.b.forward(t.xb, workers)
	t.act = linalg.Resize(t.act, n, oa.Cols+ob.Cols)
	linalg.ForRows(n, workers, concatCols[T]{t.act, oa, ob, t.at})
	return t.act
}

// sameBits reports whether a and b hold the same bit patterns, NaN-free:
// -0 and +0 differ, and a NaN equals nothing, itself included.
func sameBits[T linalg.Float](a, b []T) bool {
	for k, v := range a {
		w := b[k]
		if v != w || v == 0 && math.Signbit(float64(v)) != math.Signbit(float64(w)) {
			return false
		}
	}
	return true
}

// splitCols copies each row of src into a (the first a.Cols columns)
// and b (the rest). Row i's head belongs in a's row at[i]; the first row
// of a run writes it.
type splitCols[T linalg.Float] struct {
	src, a, b *linalg.Mat[T]
	at        []int
}

func (k splitCols[T]) Rows(lo, hi int) {
	for i := lo; i < hi; i++ {
		row := k.src.Row(i)
		if i == 0 || k.at[i] != k.at[i-1] {
			copy(k.a.Row(k.at[i]), row[:k.a.Cols])
		}
		copy(k.b.Row(i), row[k.a.Cols:])
	}
}

// concatCols is splitCols' inverse: dst's row i is a's row at[i], then
// b's row i.
type concatCols[T linalg.Float] struct {
	dst, a, b *linalg.Mat[T]
	at        []int
}

func (k concatCols[T]) Rows(lo, hi int) {
	for i := lo; i < hi; i++ {
		o := k.dst.Row(i)
		copy(o, k.a.Row(k.at[i]))
		copy(o[k.a.Cols:], k.b.Row(i))
	}
}

// packAll copies every row into the reusable batch matrix.
func packAll[T linalg.Float](dst *linalg.Mat[T], rows [][]T) *linalg.Mat[T] {
	dst = linalg.Resize(dst, len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != dst.Cols {
			panic(fmt.Sprintf("nn: row %d width %d, want %d", i, len(r), dst.Cols))
		}
		copy(dst.Row(i), r)
	}
	return dst
}
