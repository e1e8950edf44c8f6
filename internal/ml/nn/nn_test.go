package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"stencilmart/internal/linalg"
	"stencilmart/internal/ml"
	"stencilmart/internal/tensor"
	"stencilmart/internal/testutil"
)

// row1 wraps a single sample as a 1-row batch matrix.
func row1(x []float64) *linalg.Matrix {
	return linalg.FromRows([][]float64{x})
}

// numericGradCheck compares analytic input gradients against central
// finite differences for a scalar loss L = sum(out^2)/2.
func numericGradCheck(t *testing.T, layer Layer, in []float64, tol float64) {
	t.Helper()
	forward := func(x []float64) float64 {
		out := layer.forward(row1(x), 0).Row(0)
		var s float64
		for _, v := range out {
			s += v * v / 2
		}
		return s
	}
	out := layer.forward(row1(in), 0).Row(0)
	grad := make([]float64, len(out))
	copy(grad, out) // dL/dout = out
	analytic := append([]float64(nil), layer.Backward(row1(grad)).Row(0)...)

	const eps = 1e-5
	for j := range in {
		orig := in[j]
		x := append([]float64(nil), in...)
		x[j] = orig + eps
		up := forward(x)
		x[j] = orig - eps
		down := forward(x)
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-analytic[j]) > tol*(1+math.Abs(numeric)) {
			t.Fatalf("input grad %d: analytic %g vs numeric %g", j, analytic[j], numeric)
		}
	}
}

func TestDenseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(5, 3, rng)
	in := make([]float64, 5)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	numericGradCheck(t, d, in, 1e-4)
}

func TestConv2DGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewConv2D(1, 2, 5, 5, 3, rng)
	in := make([]float64, 25)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	numericGradCheck(t, c, in, 1e-4)
}

func TestConv3DGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv3D(1, 2, 4, 4, 4, 3, rng)
	in := make([]float64, 64)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	numericGradCheck(t, c, in, 1e-4)
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU()
	out := r.forward(row1([]float64{-1, 0, 2}), 0)
	if out.At(0, 0) != 0 || out.At(0, 1) != 0 || out.At(0, 2) != 2 {
		t.Errorf("ReLU forward = %v", out.Row(0))
	}
	g := r.Backward(row1([]float64{5, 5, 5}))
	if g.At(0, 0) != 0 || g.At(0, 1) != 0 || g.At(0, 2) != 5 {
		t.Errorf("ReLU backward = %v", g.Row(0))
	}
}

func TestDenseWeightGradients(t *testing.T) {
	// One row, identity-like check: for out = x*W + b,
	// dW[j][k] = x[j] * g[k] and db = g.
	rng := rand.New(rand.NewSource(4))
	d := NewDense(2, 2, rng)
	x := []float64{3, -2}
	d.forward(row1(x), 0)
	d.Backward(row1([]float64{1, 10}))
	wantW := []float64{3, 30, -2, -20}
	for i, w := range wantW {
		if math.Abs(d.w.G[i]-w) > 1e-12 {
			t.Errorf("dW[%d] = %g, want %g", i, d.w.G[i], w)
		}
	}
	if d.b.G[0] != 1 || d.b.G[1] != 10 {
		t.Errorf("db = %v", d.b.G)
	}
}

func TestAdamReducesQuadratic(t *testing.T) {
	p := newParam(1)
	p.W[0] = 5
	a := NewAdam([]*Param{p}, 0.1)
	for i := 0; i < 500; i++ {
		p.G[0] = 2 * p.W[0] // d/dw of w^2
		a.Step()
	}
	if math.Abs(p.W[0]) > 0.05 {
		t.Errorf("Adam failed to minimize: w = %g", p.W[0])
	}
}

func TestClassifierLearnsBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var x [][]float64
	var y []int
	centers := [][]float64{{0, 0}, {3, 0}, {0, 3}}
	for i := 0; i < 240; i++ {
		k := i % 3
		x = append(x, []float64{
			centers[k][0] + rng.NormFloat64()*0.4,
			centers[k][1] + rng.NormFloat64()*0.4,
		})
		y = append(y, k)
	}
	cls, err := NewFcNet(2, 3, 2, 16, TrainConfig{Epochs: 60, Batch: 32, LR: 5e-3, Seed: 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := cls.FitClassifier(x, y, 3); err != nil {
		t.Fatal(err)
	}
	hits := 0
	probas := cls.PredictProbaBatch(x)
	for i := range x {
		if ml.ArgMax(probas[i]) == y[i] {
			hits++
		}
	}
	if acc := float64(hits) / float64(len(x)); acc < 0.95 {
		t.Errorf("FcNet blob accuracy %.3f < 0.95", acc)
	}
	p := probas[0]
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %g", sum)
	}
}

// TestBatchPredictionsMatchSingle: for each network model type a batch
// of N is N batches of one, bitwise, at GOMAXPROCS 1 and 4 (a batch of N
// crosses the parallel row and GEMM-tile gates a batch of one does not).
func TestBatchPredictionsMatchSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var x [][]float64
	var yc []int
	var yr []float64
	for i := 0; i < 60; i++ {
		x = append(x, []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
		yc = append(yc, i%2)
		yr = append(yr, rng.NormFloat64())
	}
	cls, err := NewFcNet(3, 2, 1, 8, TrainConfig{Epochs: 5, Batch: 16, Seed: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := cls.FitClassifier(x, yc, 2); err != nil {
		t.Fatal(err)
	}
	reg, err := NewMLP(3, 1, 8, TrainConfig{Epochs: 5, Batch: 16, Seed: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.FitRegressor(x, yr); err != nil {
		t.Fatal(err)
	}
	// Each model scores a row set into one flat vector per row.
	models := map[string]func(rows [][]float64) [][]float64{
		"classifier": cls.PredictProbaBatch,
		"regressor": func(rows [][]float64) [][]float64 {
			var out [][]float64
			for _, v := range reg.PredictValueBatch(rows) {
				out = append(out, []float64{v})
			}
			return out
		},
	}
	for name, score := range models {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/procs%d", name, procs), func(t *testing.T) {
				testutil.WithGOMAXPROCS(t, procs, func() {
					batch := score(x)
					for i := range x {
						single := score(x[i : i+1])[0]
						for k := range single {
							if math.Float64bits(batch[i][k]) != math.Float64bits(single[k]) {
								t.Fatalf("row %d slot %d: batch %g vs single %g", i, k, batch[i][k], single[k])
							}
						}
					}
					if got := score(nil); got != nil {
						t.Errorf("empty batch scored %v", got)
					}
				})
			})
		}
	}
}

func TestMLPRegressionLearnsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var x [][]float64
	var y []float64
	for i := 0; i < 300; i++ {
		row := []float64{rng.Float64(), rng.Float64()}
		x = append(x, row)
		y = append(y, 2*row[0]-3*row[1]+1)
	}
	mlp, err := NewMLP(2, 2, 16, TrainConfig{Epochs: 120, Batch: 32, LR: 5e-3, Seed: 2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := mlp.FitRegressor(x, y); err != nil {
		t.Fatal(err)
	}
	var mse float64
	for i, v := range mlp.PredictValueBatch(x) {
		d := v - y[i]
		mse += d * d
	}
	mse /= float64(len(x))
	if mse > 0.02 {
		t.Errorf("MLP MSE %.4f > 0.02", mse)
	}
}

func TestConvNetShapeAndTraining(t *testing.T) {
	cls, err := NewConvNet(2, 4, TrainConfig{Epochs: 5, Batch: 16, LR: 2e-3, Seed: 3}, 9)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.Side * tensor.Side
	rng := rand.New(rand.NewSource(7))
	var x [][]float64
	var y []int
	for i := 0; i < 40; i++ {
		row := make([]float64, in)
		k := i % 4
		// Put a class-dependent blob in a corner so the task is learnable.
		row[k] = 1
		for j := 0; j < 8; j++ {
			row[rng.Intn(in)] = 1
		}
		x = append(x, row)
		y = append(y, k)
	}
	if err := cls.FitClassifier(x, y, 4); err != nil {
		t.Fatal(err)
	}
	if p := cls.PredictProbaBatch(x[:1])[0]; len(p) != 4 {
		t.Errorf("ConvNet scored %d classes, want 4", len(p))
	}
}

func TestConvMLPForwardBackward(t *testing.T) {
	reg, err := NewConvMLP(2, 6, TrainConfig{Epochs: 2, Batch: 8, LR: 1e-3, Seed: 4}, 10)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.Side*tensor.Side + 6
	rng := rand.New(rand.NewSource(8))
	var x [][]float64
	var y []float64
	for i := 0; i < 24; i++ {
		row := make([]float64, in)
		for j := range row {
			row[j] = rng.Float64()
		}
		x = append(x, row)
		y = append(y, rng.Float64())
	}
	if err := reg.FitRegressor(x, y); err != nil {
		t.Fatal(err)
	}
	v := reg.PredictValueBatch(x[:1])[0]
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("ConvMLP prediction %g", v)
	}
}

func TestTwoBranchSplitsAndConcats(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := NewNetwork(NewDense(2, 3, rng))
	b := NewNetwork() // identity
	tb := NewTwoBranch(2, a, b, 3)
	out := tb.forward(row1([]float64{1, 2, 9, 8}), 0)
	if out.Cols != 5 {
		t.Fatalf("two-branch output width %d, want 5", out.Cols)
	}
	if out.At(0, 3) != 9 || out.At(0, 4) != 8 {
		t.Errorf("identity tail mangled: %v", out.Row(0))
	}
	grads := tb.Backward(row1([]float64{1, 1, 1, 7, 6}))
	if grads.Cols != 4 {
		t.Fatalf("two-branch input grad width %d, want 4", grads.Cols)
	}
	if grads.At(0, 2) != 7 || grads.At(0, 3) != 6 {
		t.Errorf("identity grads mangled: %v", grads.Row(0))
	}
}

// TestTrainingStepKeepsDuplicateRowsApart pins that the shared-head fold
// never reaches training. A step as trainLoop runs it (per-row forward
// at workers 0, then Backward) over a minibatch whose adjacent rows
// repeat a head, or a whole row, lowers every row and produces the
// per-row reference oracle's activations and gradients; trainLoop itself
// runs that forward and leaves the network folding again; and Backward
// refuses to follow a forward that folded, because the per-row scratch
// it reads is not there.
func TestTrainingStepKeepsDuplicateRowsApart(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const tol = 1e-9
	c := newConv(1, 3, 1, 5, 5, 1, 3, 3, rng)
	d := NewDense(4, 2, rng)
	head, aOut := c.shape.InLen(), c.outWidth()
	tb := NewTwoBranch(head, NewNetwork(c), NewNetwork(d), aOut)
	net := NewNetwork(tb)

	// Rows 0-1 are one row twice, 2-3 share a head under different
	// tails, 4 is on its own.
	x := randMatrix(5, head+d.in, rng)
	copy(x.Row(1), x.Row(0))
	copy(x.Row(3)[:head], x.Row(2)[:head])
	net.training(true)
	out := net.forward(x, 0)
	if c.col.Rows != x.Rows*c.m {
		t.Fatalf("training forward lowered %d patch rows for %d rows, want %d", c.col.Rows, x.Rows, x.Rows*c.m)
	}
	grad := randMatrix(x.Rows, aOut+d.out, rng)
	dx := net.Backward(grad)

	wantCW, wantCB := make([]float64, len(c.weight.G)), make([]float64, len(c.bias.G))
	wantDW, wantDB := make([]float64, len(d.w.G)), make([]float64, len(d.b.G))
	for i := 0; i < x.Rows; i++ {
		xa, xb := x.Row(i)[:head], x.Row(i)[head:]
		want := append(referenceConvForward(c, xa), referenceDenseForward(d, xb)...)
		if diff := maxAbsDiff(out.Row(i), want); diff > tol {
			t.Errorf("forward row %d off by %g", i, diff)
		}
		g := grad.Row(i)
		wantDx := append(referenceConvBackward(c, xa, g[:aOut], wantCW, wantCB),
			referenceDenseBackward(d, xb, g[aOut:], wantDW, wantDB)...)
		if diff := maxAbsDiff(dx.Row(i), wantDx); diff > tol {
			t.Errorf("input grad row %d off by %g", i, diff)
		}
	}
	for name, pair := range map[string][2][]float64{
		"conv weight": {c.weight.G, wantCW}, "conv bias": {c.bias.G, wantCB},
		"dense weight": {d.w.G, wantDW}, "dense bias": {d.b.G, wantDB},
	} {
		if diff := maxAbsDiff(pair[0], pair[1]); diff > tol {
			t.Errorf("%s grads off by %g", name, diff)
		}
	}

	// trainLoop: every row carries row 0's head, so whatever the shuffle
	// does, duplicates are adjacent in the minibatch.
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = x.Row(i)
		copy(rows[i][:head], x.Row(0)[:head])
	}
	steps := 0
	trainLoop(net, rows, TrainConfig{Epochs: 2, Batch: len(rows)}, func(out *linalg.Matrix, _ []int, grad *linalg.Matrix) {
		steps++
		if c.col.Rows != out.Rows*c.m {
			t.Errorf("trainLoop step %d lowered %d patch rows for %d rows, want %d", steps, c.col.Rows, out.Rows, out.Rows*c.m)
		}
		copy(grad.Data, out.Data)
	})
	if steps != 2 {
		t.Fatalf("trainLoop ran %d steps, want 2", steps)
	}
	net.forward(x, 0) // x's rows are `rows`: one head
	if c.col.Rows != c.m {
		t.Errorf("inference forward after trainLoop lowered %d patch rows, want one row's %d", c.col.Rows, c.m)
	}
	defer func() {
		if recover() == nil {
			t.Error("Backward followed a folded forward")
		}
	}()
	net.Backward(grad)
}

// TestBuildersForwardWidths runs a batch through every builder's network
// (2-D and 3-D) layer by layer: each layer must emit the width the next
// one was constructed for, and the last one the width of its head —
// classes for the classifiers, one for the regressors. ConvMLP is the
// case a width computed per layer got wrong: its two-branch layer emits
// convOut+32 columns (branch B is Dense(featDim, 32), not the identity).
func TestBuildersForwardWidths(t *testing.T) {
	const classes, featDim = 5, 7
	cfg := TrainConfig{}
	side2 := tensor.Side * tensor.Side
	side3 := side2 * tensor.Side
	cls := func(c *Classifier, err error) *Network {
		if err != nil {
			t.Fatal(err)
		}
		return c.Net
	}
	reg := func(r *Regressor, err error) *Network {
		if err != nil {
			t.Fatal(err)
		}
		return r.Net
	}
	for _, tc := range []struct {
		name    string
		net     *Network
		in, out int
	}{
		{"convnet2d", cls(NewConvNet(2, classes, cfg, 1)), side2, classes},
		{"convnet3d", cls(NewConvNet(3, classes, cfg, 2)), side3, classes},
		{"fcnet", cls(NewFcNet(side2+featDim, classes, 2, 16, cfg, 3)), side2 + featDim, classes},
		{"mlp", reg(NewMLP(featDim, 2, 16, cfg, 4)), featDim, 1},
		{"convmlp2d", reg(NewConvMLP(2, featDim, cfg, 5)), side2 + featDim, 1},
		{"convmlp3d", reg(NewConvMLP(3, featDim, cfg, 6)), side3 + featDim, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := randMatrix(3, tc.in, rand.New(rand.NewSource(7)))
			for i, l := range tc.net.layers {
				switch next := l.(type) {
				case *Dense:
					if x.Cols != next.in {
						t.Fatalf("layer %d: dense built for width %d receives %d", i, next.in, x.Cols)
					}
				case *Conv:
					if x.Cols != next.shape.InLen() {
						t.Fatalf("layer %d: conv built for width %d receives %d", i, next.shape.InLen(), x.Cols)
					}
				}
				x = l.forward(x, 0)
			}
			if x.Rows != 3 || x.Cols != tc.out {
				t.Fatalf("network emits %dx%d, want 3x%d", x.Rows, x.Cols, tc.out)
			}
		})
	}
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewConvNet(4, 5, TrainConfig{}, 1); err == nil {
		t.Error("ConvNet dims=4 accepted")
	}
	if _, err := NewConvNet(2, 1, TrainConfig{}, 1); err == nil {
		t.Error("ConvNet 1 class accepted")
	}
	if _, err := NewFcNet(0, 2, 1, 8, TrainConfig{}, 1); err == nil {
		t.Error("FcNet inDim=0 accepted")
	}
	if _, err := NewMLP(3, 0, 8, TrainConfig{}, 1); err == nil {
		t.Error("MLP 0 layers accepted")
	}
	if _, err := NewConvMLP(2, 0, TrainConfig{}, 1); err == nil {
		t.Error("ConvMLP featDim=0 accepted")
	}
}

func TestNetworkNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := NewNetwork(NewDense(4, 8, rng), NewReLU(), NewDense(8, 2, rng))
	want := (4*8 + 8) + (8*2 + 2)
	if got := n.NumParams(); got != want {
		t.Errorf("NumParams = %d, want %d", got, want)
	}
}

func TestFitValidation(t *testing.T) {
	cls, _ := NewFcNet(2, 2, 1, 4, TrainConfig{}, 1)
	if err := cls.FitClassifier(nil, nil, 2); err == nil {
		t.Error("empty classifier fit accepted")
	}
	if err := cls.FitClassifier([][]float64{{1, 2}}, []int{0}, 1); err == nil {
		t.Error("single-class fit accepted")
	}
	mlp, _ := NewMLP(2, 1, 4, TrainConfig{}, 1)
	if err := mlp.FitRegressor([][]float64{{1, 2}}, nil); err == nil {
		t.Error("mismatched regressor fit accepted")
	}
}
