package nn

import (
	"math"
	"math/rand"
	"testing"

	"stencilmart/internal/tensor"
)

func rowsToF32(rows [][]float64) [][]float32 {
	out := make([][]float32, len(rows))
	for i, r := range rows {
		f := make([]float32, len(r))
		for j, v := range r {
			f[j] = float32(v)
		}
		out[i] = f
	}
	return out
}

// TestCompiledClassifierMatchesF64 holds the differential contract for
// every classifier architecture the framework trains: decisions
// identical away from f64 decision ties, probabilities close
// everywhere. The ConvNet case covers conv + two-branch-free stacks;
// FcNet covers the pure dense stack.
func TestCompiledClassifierMatchesF64(t *testing.T) {
	const classes = 4
	cfg := TrainConfig{Epochs: 4, Batch: 16, LR: 2e-3, Seed: 1}

	build := map[string]func() (*Classifier, [][]float64){
		"convnet2d": func() (*Classifier, [][]float64) {
			x, y := benchClassData(48, tensor.Side*tensor.Side, classes, 31)
			cls, err := NewConvNet(2, classes, cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := cls.FitClassifier(x, y, classes); err != nil {
				t.Fatal(err)
			}
			return cls, x
		},
		"fcnet": func() (*Classifier, [][]float64) {
			width := tensor.Side*tensor.Side + tensor.NumFeatures
			x, y := benchClassData(48, width, classes, 32)
			cls, err := NewFcNet(width, classes, 2, 32, cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := cls.FitClassifier(x, y, classes); err != nil {
				t.Fatal(err)
			}
			return cls, x
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			cls, x := mk()
			c, err := cls.CompileF32()
			if err != nil {
				t.Fatal(err)
			}
			if c.Classes() != classes {
				t.Fatalf("compiled classes = %d, want %d", c.Classes(), classes)
			}
			want := cls.PredictProbaBatch(x)
			rows := rowsToF32(x)
			out := make([]float32, len(rows)*classes)
			c.PredictProbaBatchF32(rows, out)
			const tieEps = 1e-6
			for i, p64 := range want {
				p32 := out[i*classes : (i+1)*classes]
				best, gap := 0, math.Inf(1)
				for k := range p64 {
					if p64[k] > p64[best] {
						best = k
					}
					if d := math.Abs(float64(p32[k]) - p64[k]); d > 2e-3 {
						t.Fatalf("row %d class %d: f32 proba %g vs f64 %g", i, k, p32[k], p64[k])
					}
				}
				for k := range p64 {
					if k != best && p64[best]-p64[k] < gap {
						gap = p64[best] - p64[k]
					}
				}
				if gap < tieEps {
					continue
				}
				got := 0
				for k := range p32 {
					if p32[k] > p32[got] {
						got = k
					}
				}
				if got != best {
					t.Fatalf("row %d: f32 decision %d vs f64 %d (gap %g)", i, got, best, gap)
				}
			}
		})
	}
}

// TestCompiledRegressorMatchesF64 covers the regression architectures:
// MLP (dense-only) and ConvMLP (two-branch conv + dense).
func TestCompiledRegressorMatchesF64(t *testing.T) {
	cfg := TrainConfig{Epochs: 3, Batch: 32, LR: 1e-3, Seed: 1}

	build := map[string]func() (*Regressor, [][]float64){
		"mlp": func() (*Regressor, [][]float64) {
			x, y := benchRegData(64, 40, 41)
			reg, err := NewMLP(40, 3, 32, cfg, 3)
			if err != nil {
				t.Fatal(err)
			}
			if err := reg.FitRegressor(x, y); err != nil {
				t.Fatal(err)
			}
			return reg, x
		},
		"convmlp2d": func() (*Regressor, [][]float64) {
			const featDim = 28
			x, y := benchRegData(48, tensor.Side*tensor.Side+featDim, 42)
			reg, err := NewConvMLP(2, featDim, cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			if err := reg.FitRegressor(x, y); err != nil {
				t.Fatal(err)
			}
			return reg, x
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			reg, x := mk()
			c, err := reg.CompileF32()
			if err != nil {
				t.Fatal(err)
			}
			want := reg.PredictValueBatch(x)
			rows := rowsToF32(x)
			out := make([]float32, len(rows))
			c.PredictValueBatchF32(rows, out)
			for i := range want {
				diff := math.Abs(float64(out[i]) - want[i])
				if diff > 5e-3*math.Max(1, math.Abs(want[i])) {
					t.Fatalf("row %d: f32 %g vs f64 %g (diff %g)", i, out[i], want[i], diff)
				}
			}
		})
	}
}

// TestCompiledBatchInvariance pins row independence of the compiled
// forward: a row scores bitwise the same alone and inside a batch (the
// property the serving lane's dedup and GOMAXPROCS stability rely on).
// ConvNet covers the conv stack, ConvMLP the two-branch split/concat.
func TestCompiledBatchInvariance(t *testing.T) {
	cfg := TrainConfig{Epochs: 2, Batch: 8, LR: 2e-3, Seed: 1}
	t.Run("convnet", func(t *testing.T) {
		const classes = 4
		x, y := benchClassData(24, tensor.Side*tensor.Side, classes, 33)
		cls, err := NewConvNet(2, classes, cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := cls.FitClassifier(x, y, classes); err != nil {
			t.Fatal(err)
		}
		c, err := cls.CompileF32()
		if err != nil {
			t.Fatal(err)
		}
		rows := rowsToF32(x)
		batch := make([]float32, len(rows)*classes)
		c.PredictProbaBatchF32(rows, batch)
		single := make([]float32, classes)
		for i := range rows {
			c.PredictProbaBatchF32(rows[i:i+1], single)
			for k := range single {
				if single[k] != batch[i*classes+k] {
					t.Fatalf("row %d class %d: alone %g vs batched %g", i, k, single[k], batch[i*classes+k])
				}
			}
		}
	})
	t.Run("convmlp", func(t *testing.T) {
		const featDim = 28
		x, y := benchRegData(24, tensor.Side*tensor.Side+featDim, 38)
		reg, err := NewConvMLP(2, featDim, cfg, 6)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.FitRegressor(x, y); err != nil {
			t.Fatal(err)
		}
		c, err := reg.CompileF32()
		if err != nil {
			t.Fatal(err)
		}
		rows := rowsToF32(x)
		batch := make([]float32, len(rows))
		c.PredictValueBatchF32(rows, batch)
		single := make([]float32, 1)
		for i := range rows {
			c.PredictValueBatchF32(rows[i:i+1], single)
			if single[0] != batch[i] {
				t.Fatalf("row %d: alone %g vs batched %g", i, single[0], batch[i])
			}
		}
	})
}

// trainedConvMLP2D returns a small trained ConvMLP with its compiled form.
func trainedConvMLP2D(t *testing.T, featDim int, seed int64) (*Regressor, *CompiledRegressor) {
	x, y := benchRegData(24, tensor.Side*tensor.Side+featDim, seed)
	reg, err := NewConvMLP(2, featDim, TrainConfig{Epochs: 2, Batch: 8, LR: 1e-3, Seed: 1}, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.FitRegressor(x, y); err != nil {
		t.Fatal(err)
	}
	c, err := reg.CompileF32()
	if err != nil {
		t.Fatal(err)
	}
	return reg, c
}

// loweredRows is how many patch rows the compiled ConvMLP's first
// convolution lowered on its last forward, in samples: the number of
// rows that really went through the conv stack.
func loweredRows(t *testing.T, c *CompiledRegressor) int {
	conv1 := c.net[0].(*twoBranch[float32, stack[float32]]).a[0].(*conv[float32])
	if conv1.col.Rows%conv1.m != 0 {
		t.Fatalf("conv lowered %d patch rows, not a multiple of %d", conv1.col.Rows, conv1.m)
	}
	return conv1.col.Rows / conv1.m
}

// TestCompiledTwoBranchFoldsSharedHead is the fold's contract on the
// inference forward: consecutive rows with a bit-identical tensor head go
// through the conv stack once (read off the conv layer's lowered row
// count, so it proves the fold happened and not only that answers
// agree), and every row still scores bitwise what it scores alone, on
// the compiled f32 form and on the float64 lane alike.
func TestCompiledTwoBranchFoldsSharedHead(t *testing.T) {
	const featDim = 6
	const head = tensor.Side * tensor.Side
	reg, c := trainedConvMLP2D(t, featDim, 44)
	rng := rand.New(rand.NewSource(45))
	mkHead := func() []float32 {
		h := make([]float32, head)
		for i := range h {
			if rng.Intn(3) == 0 {
				h[i] = 1
			}
		}
		return h
	}
	row := func(h []float32) []float32 {
		r := append([]float32(nil), h...)
		for i := 0; i < featDim; i++ {
			r = append(r, float32(rng.NormFloat64()))
		}
		return r
	}
	alone := func(r []float32) float32 {
		out := make([]float32, 1)
		c.PredictValueBatchF32([][]float32{r}, out)
		return out[0]
	}
	score := func(rows [][]float32) []float32 {
		out := make([]float32, len(rows))
		c.PredictValueBatchF32(rows, out)
		return out
	}
	sameAsAlone := func(name string, rows [][]float32, got []float32) {
		t.Helper()
		for i, r := range rows {
			want := alone(r)
			if math.Float32bits(got[i]) != math.Float32bits(want) {
				t.Errorf("%s row %d: batched %g vs alone %g", name, i, got[i], want)
			}
		}
	}

	a, b := mkHead(), mkHead()
	rows := [][]float32{row(a), row(a), row(a), row(a), row(b), row(a)}
	got := score(rows)
	if n := loweredRows(t, c); n != 3 {
		t.Errorf("[A A A A B A] put %d rows through the conv stack, want 3 runs", n)
	}
	sameAsAlone("shared head", rows, got)

	// A batch with no runs folds nothing, and the one after a folded
	// batch is not served from its scratch.
	distinct := [][]float32{row(b), row(a), row(b), row(mkHead())}
	got = score(distinct)
	if n := loweredRows(t, c); n != len(distinct) {
		t.Errorf("distinct heads put %d rows through the conv stack, want %d", n, len(distinct))
	}
	sameAsAlone("distinct heads", distinct, got)

	// Heads that are equal as numbers, or nearly equal, are not the same
	// bits: none of these pairs may fold.
	lastDiffers := append([]float32(nil), a...)
	lastDiffers[head-1]++
	negZero := append([]float32(nil), a...)
	posZero := append([]float32(nil), a...)
	negZero[3], posZero[3] = float32(math.Copysign(0, -1)), 0
	nan := append([]float32(nil), a...)
	nan[5] = float32(math.NaN())
	for _, tc := range []struct {
		name string
		x, y []float32
	}{
		{"last element", a, lastDiffers},
		{"-0 vs +0", negZero, posZero},
		{"NaN", nan, nan},
	} {
		pair := [][]float32{row(tc.x), row(tc.y)}
		got := score(pair)
		if n := loweredRows(t, c); n != 2 {
			t.Errorf("%s: %d rows through the conv stack, want 2 (no fold)", tc.name, n)
		}
		if tc.name != "NaN" {
			sameAsAlone(tc.name, pair, got)
		}
	}

	// The f64 lane runs the same forward body and folds the same way.
	rows64 := make([][]float64, len(rows))
	for i, r := range rows {
		rows64[i] = make([]float64, len(r))
		for j, v := range r {
			rows64[i][j] = float64(v)
		}
	}
	got64 := reg.PredictValueBatch(rows64)
	conv1 := reg.Net.layers[0].(*TwoBranch).a.layers[0].(*Conv)
	if conv1.col.Rows != 3*conv1.m {
		t.Errorf("f64 lane lowered %d patch rows for [A A A A B A], want 3 runs x %d", conv1.col.Rows, conv1.m)
	}
	for i, r := range rows64 {
		if want := reg.PredictValueBatch([][]float64{r})[0]; math.Float64bits(got64[i]) != math.Float64bits(want) {
			t.Errorf("f64 row %d: batched %g vs alone %g", i, got64[i], want)
		}
	}
}

// TestAllocGateNNF32 pins the zero-allocation contract of the compiled
// forward passes once layer scratch is warm.
func TestAllocGateNNF32(t *testing.T) {
	const classes = 4
	x, y := benchClassData(32, tensor.Side*tensor.Side, classes, 34)
	cls, err := NewConvNet(2, classes, TrainConfig{Epochs: 2, Batch: 16, LR: 2e-3, Seed: 1}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := cls.FitClassifier(x, y, classes); err != nil {
		t.Fatal(err)
	}
	cc, err := cls.CompileF32()
	if err != nil {
		t.Fatal(err)
	}
	rows := rowsToF32(x)
	out := make([]float32, len(rows)*classes)
	cc.PredictProbaBatchF32(rows, out) // warm the layer scratch
	if n := testing.AllocsPerRun(10, func() { cc.PredictProbaBatchF32(rows, out) }); n != 0 {
		t.Errorf("CompiledClassifier allocs/op = %g, want 0", n)
	}

	const featDim = 28
	xr, yr := benchRegData(32, tensor.Side*tensor.Side+featDim, 35)
	reg, err := NewConvMLP(2, featDim, TrainConfig{Epochs: 2, Batch: 16, LR: 1e-3, Seed: 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.FitRegressor(xr, yr); err != nil {
		t.Fatal(err)
	}
	cr, err := reg.CompileF32()
	if err != nil {
		t.Fatal(err)
	}
	rrows := rowsToF32(xr)
	vout := make([]float32, len(rrows))
	cr.PredictValueBatchF32(rrows, vout) // warm the layer scratch
	if n := testing.AllocsPerRun(10, func() { cr.PredictValueBatchF32(rrows, vout) }); n != 0 {
		t.Errorf("CompiledRegressor allocs/op = %g, want 0", n)
	}

	// What a request is: one tensor head under four tails, folded.
	shared := sharedHeadRows(rrows, tensor.Side*tensor.Side, 4)
	sout := make([]float32, len(shared))
	cr.PredictValueBatchF32(shared, sout)
	if n := loweredRows(t, cr); n != 1 {
		t.Fatalf("one head x four tails put %d rows through the conv stack, want 1", n)
	}
	if n := testing.AllocsPerRun(10, func() { cr.PredictValueBatchF32(shared, sout) }); n != 0 {
		t.Errorf("CompiledRegressor shared-head allocs/op = %g, want 0", n)
	}
}

// sharedHeadRows returns n copies of rows[:n] that all carry rows[0]'s
// first head values — one stencil's tensor under n different tails, the
// batch the cross-GPU regressor is handed per request.
func sharedHeadRows(rows [][]float32, head, n int) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		out[i] = append([]float32(nil), rows[i]...)
		copy(out[i][:head], rows[0][:head])
	}
	return out
}

// BenchmarkLaneNNScore compares the float64 reference networks against
// their compiled f32 forms on a serving-sized batch — the
// `make bench-lanes` microbenchmark pair for the network side.
func BenchmarkLaneNNScore(b *testing.B) {
	const classes = 4
	x, y := benchClassData(32, tensor.Side*tensor.Side*tensor.Side, classes, 36)
	cls, err := NewConvNet(3, classes, TrainConfig{Epochs: 1, Batch: 16, LR: 2e-3, Seed: 1}, 8)
	if err != nil {
		b.Fatal(err)
	}
	if err := cls.FitClassifier(x, y, classes); err != nil {
		b.Fatal(err)
	}
	cc, err := cls.CompileF32()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("convnet3d/f64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = cls.PredictProbaBatch(x)
		}
	})
	b.Run("convnet3d/f32", func(b *testing.B) {
		b.ReportAllocs()
		rows := rowsToF32(x)
		out := make([]float32, len(rows)*classes)
		cc.PredictProbaBatchF32(rows, out)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cc.PredictProbaBatchF32(rows, out)
		}
	})

	const featDim = 28
	xr, yr := benchRegData(32, tensor.Side*tensor.Side*tensor.Side+featDim, 37)
	reg, err := NewConvMLP(3, featDim, TrainConfig{Epochs: 1, Batch: 16, LR: 1e-3, Seed: 1}, 9)
	if err != nil {
		b.Fatal(err)
	}
	if err := reg.FitRegressor(xr, yr); err != nil {
		b.Fatal(err)
	}
	cr, err := reg.CompileF32()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("convmlp3d/f64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = reg.PredictValueBatch(xr)
		}
	})
	benchF32 := func(rows [][]float32) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			out := make([]float32, len(rows))
			cr.PredictValueBatchF32(rows, out)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cr.PredictValueBatchF32(rows, out)
			}
		}
	}
	b.Run("convmlp3d/f32", benchF32(rowsToF32(xr)))
	// The serving shape: one request's rows, one tensor head under four
	// catalog-GPU tails.
	b.Run("convmlp3d/f32/shared4", benchF32(sharedHeadRows(rowsToF32(xr), tensor.Side*tensor.Side*tensor.Side, 4)))
}
