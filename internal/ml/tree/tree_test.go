package tree

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"stencilmart/internal/ml"
	"stencilmart/internal/persist"
	"stencilmart/internal/testutil"
)

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// walk is the traversal oracle: a recursive descent over the tree's wire
// columns in numeric format T, rounding each threshold and leaf as
// Compile does. visit, when set, sees every split on the row's path.
func walk[T float32 | float64](ft FlatTree, i int32, row []T, visit func(feature int, thr float64)) T {
	f := ft.Feature[i]
	if f < 0 {
		return T(ft.Value[i])
	}
	if visit != nil {
		visit(int(f), ft.Threshold[i])
	}
	if row[f] <= T(ft.Threshold[i]) {
		return walk(ft, ft.Left[i], row, visit)
	}
	return walk(ft, ft.Right[i], row, visit)
}

// predictOne scores a single row: a batch of one.
func predictOne(tr *Tree, row []float64) float64 { return tr.PredictBatch([][]float64{row}, nil)[0] }

// shape returns the depth (0 for a lone leaf) and leaf count below node i.
func shape(ft FlatTree, i int32) (depth, leaves int) {
	if ft.Feature[i] < 0 {
		return 0, 1
	}
	ld, ll := shape(ft, ft.Left[i])
	rd, rl := shape(ft, ft.Right[i])
	return 1 + max(ld, rd), ll + rl
}

// atProcs runs f as a subtest under GOMAXPROCS 1 and 4.
func atProcs(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			testutil.WithGOMAXPROCS(t, procs, func() { f(t) })
		})
	}
}

func TestFitTreeStepFunction(t *testing.T) {
	// y = 1 when x0 > 0.5 else 0: a single split recovers it exactly.
	var x [][]float64
	var y []float64
	for i := 0; i < 40; i++ {
		v := float64(i) / 40
		x = append(x, []float64{v, 0.5})
		if v > 0.5 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	tr, err := FitTree(x, y, nil, allIdx(len(x)), TreeConfig{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := predictOne(tr, []float64{0.1, 0.5}); math.Abs(got) > 1e-9 {
		t.Errorf("low side = %g, want 0", got)
	}
	if got := predictOne(tr, []float64{0.9, 0.5}); math.Abs(got-1) > 1e-9 {
		t.Errorf("high side = %g, want 1", got)
	}
	if depth, leaves := shape(tr.Flatten(), 0); depth < 1 || leaves < 2 {
		t.Errorf("degenerate tree: depth=%d leaves=%d", depth, leaves)
	}
}

func TestFitTreeConstantTarget(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{7, 7, 7, 7}
	tr, err := FitTree(x, y, nil, allIdx(4), TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, leaves := shape(tr.Flatten(), 0); leaves != 1 {
		t.Errorf("constant target grew %d leaves", leaves)
	}
	if got := predictOne(tr, []float64{2.5}); math.Abs(got-7) > 1e-6 {
		t.Errorf("predict = %g, want 7", got)
	}
}

func TestFitTreeErrors(t *testing.T) {
	if _, err := FitTree(nil, nil, nil, nil, TreeConfig{}); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := FitTree([][]float64{{1}}, []float64{1, 2}, nil, []int{0}, TreeConfig{}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FitTree([][]float64{{1}}, []float64{1}, []float64{1, 2}, []int{0}, TreeConfig{}); err == nil {
		t.Error("hessian mismatch accepted")
	}
	if _, err := FitTree([][]float64{{1}}, []float64{1}, nil, nil, TreeConfig{}); err == nil {
		t.Error("empty index set accepted")
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		row := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		x = append(x, row)
		y = append(y, rng.NormFloat64())
	}
	for _, d := range []int{1, 2, 3, 5} {
		tr, err := FitTree(x, y, nil, allIdx(len(x)), TreeConfig{MaxDepth: d, MinLeaf: 1})
		if err != nil {
			t.Fatal(err)
		}
		if depth, _ := shape(tr.Flatten(), 0); depth > d {
			t.Errorf("depth %d exceeds max %d", depth, d)
		}
	}
}

func TestGBRegressorFitsSmoothFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var x [][]float64
	var y []float64
	f := func(r []float64) float64 { return 3*r[0] - 2*r[1]*r[1] + r[0]*r[1] }
	for i := 0; i < 400; i++ {
		row := []float64{rng.Float64() * 2, rng.Float64() * 2}
		x = append(x, row)
		y = append(y, f(row))
	}
	g := NewGBRegressor(BoostConfig{Rounds: 80, Tree: TreeConfig{MaxDepth: 4}})
	if err := g.FitRegressor(x, y); err != nil {
		t.Fatal(err)
	}
	if len(g.ens.trees) != 80 {
		t.Errorf("ensemble size %d, want 80", len(g.ens.trees))
	}
	var sse, sst, mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	for i, v := range g.PredictValueBatch(x) {
		d := v - y[i]
		sse += d * d
		sst += (y[i] - mean) * (y[i] - mean)
	}
	r2 := 1 - sse/sst
	if r2 < 0.95 {
		t.Errorf("training R^2 = %.3f, want >= 0.95", r2)
	}
}

// TestBoostRefusesConfigsNoFitHonours: a learning rate that is not a
// finite number above 0 fitted ensembles that predict NaN, the prior or
// its mirror image (-0.1 answered 100.09 for a target of 3), and a
// negative round count, depth or leaf floor fitted the prior alone or
// nothing sensible. Both ensembles now refuse them from the fit, and a
// checkpointed ensemble carrying one from its load.
func TestBoostRefusesConfigsNoFitHonours(t *testing.T) {
	x, yv, yc := binnedData(3, 200, []int{4, 0, 9}, 2)
	for _, tc := range []struct {
		name string
		cfg  BoostConfig
		want string
	}{
		{"learning rate NaN", BoostConfig{LearningRate: math.NaN()}, "LearningRate"},
		{"learning rate +Inf", BoostConfig{LearningRate: math.Inf(1)}, "LearningRate"},
		{"learning rate -Inf", BoostConfig{LearningRate: math.Inf(-1)}, "LearningRate"},
		{"learning rate negative", BoostConfig{LearningRate: -0.1}, "LearningRate"},
		{"negative rounds", BoostConfig{Rounds: -3}, "Rounds -3"},
		{"negative depth", BoostConfig{Tree: TreeConfig{MaxDepth: -1}}, "MaxDepth -1"},
		{"negative leaf floor", BoostConfig{Tree: TreeConfig{MinLeaf: -2}}, "MinLeaf -2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := NewGBRegressor(tc.cfg).FitRegressor(x, yv); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("GBRegressor fit: err %v, want one naming %s", err, tc.want)
			}
			if err := NewGBDT(tc.cfg).FitClassifier(x, yc, 2); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("GBDT fit: err %v, want one naming %s", err, tc.want)
			}
			var cols persist.Columns
			st := snapshot(fitted(tc.cfg), &ensemble[float64]{trees: []nodes[float64]{stump(), stump()}, init: []float64{0, 0}}, &cols)
			if _, err := GBDTFromSnapshot(st, &cols, 2); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("GBDT load: err %v, want one naming %s", err, tc.want)
			}
			st.Init, st.Trees = st.Init[:1], 1
			if _, err := GBRegressorFromSnapshot(st, persist.ColumnsOf(cols.Bytes()), 2); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("GBRegressor load: err %v, want one naming %s", err, tc.want)
			}
		})
	}
}

func TestGBRegressorErrors(t *testing.T) {
	g := NewGBRegressor(BoostConfig{})
	if err := g.FitRegressor(nil, nil); err == nil {
		t.Error("empty fit accepted")
	}
	if err := g.FitRegressor([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("mismatched fit accepted")
	}
}

func TestGBDTSeparableClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var x [][]float64
	var y []int
	// Three Gaussian blobs.
	centers := [][]float64{{0, 0}, {4, 0}, {2, 4}}
	for i := 0; i < 300; i++ {
		k := i % 3
		x = append(x, []float64{
			centers[k][0] + rng.NormFloat64()*0.5,
			centers[k][1] + rng.NormFloat64()*0.5,
		})
		y = append(y, k)
	}
	g := NewGBDT(BoostConfig{Rounds: 30, Tree: TreeConfig{MaxDepth: 3}})
	if err := g.FitClassifier(x, y, 3); err != nil {
		t.Fatal(err)
	}
	hits := 0
	probas := g.PredictProbaBatch(x)
	for i := range x {
		if ml.ArgMax(probas[i]) == y[i] {
			hits++
		}
	}
	if acc := float64(hits) / float64(len(x)); acc < 0.95 {
		t.Errorf("training accuracy %.3f, want >= 0.95", acc)
	}
	p := probas[0]
	var sum float64
	for _, v := range p {
		if v < 0 || v > 1 {
			t.Errorf("probability %g outside [0,1]", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %g", sum)
	}
	if g.NumClasses() != 3 {
		t.Errorf("NumClasses = %d", g.NumClasses())
	}
}

func TestGBDTErrors(t *testing.T) {
	g := NewGBDT(BoostConfig{})
	if err := g.FitClassifier(nil, nil, 2); err == nil {
		t.Error("empty fit accepted")
	}
	if err := g.FitClassifier([][]float64{{1}}, []int{0}, 1); err == nil {
		t.Error("single class accepted")
	}
	if err := g.FitClassifier([][]float64{{1}}, []int{5}, 2); err == nil {
		t.Error("out-of-range label accepted")
	}
}

// Property: tree predictions are always one of the leaf values — i.e.
// bounded by [min(y), max(y)] for unweighted fits.
func TestQuickTreePredictionBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		x := make([][]float64, n)
		y := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range x {
			x[i] = []float64{rng.Float64(), rng.Float64()}
			y[i] = rng.NormFloat64()
			lo = math.Min(lo, y[i])
			hi = math.Max(hi, y[i])
		}
		tr, err := FitTree(x, y, nil, allIdx(n), TreeConfig{MaxDepth: 5, MinLeaf: 1})
		if err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			p := predictOne(tr, []float64{rng.Float64() * 2, rng.Float64() * 2})
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFitTreeRejectsNonFinite(t *testing.T) {
	x := [][]float64{{1, 2}, {3, 4}}
	y := []float64{1, 2}
	cases := []struct {
		name string
		x    [][]float64
		y, h []float64
	}{
		{"nan feature", [][]float64{{1, math.NaN()}, {3, 4}}, y, nil},
		{"inf feature", [][]float64{{1, 2}, {math.Inf(1), 4}}, y, nil},
		{"nan target", x, []float64{1, math.NaN()}, nil},
		{"inf target", x, []float64{math.Inf(-1), 2}, nil},
		{"nan hessian", x, y, []float64{1, math.NaN()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := FitTree(tc.x, tc.y, tc.h, allIdx(2), TreeConfig{})
			if !errors.Is(err, ErrNonFinite) {
				t.Fatalf("err = %v, want ErrNonFinite", err)
			}
		})
	}
}

func TestFitTreeRejectsRaggedRows(t *testing.T) {
	_, err := FitTree([][]float64{{1, 2}, {3}}, []float64{1, 2}, nil, allIdx(2), TreeConfig{})
	if err == nil || errors.Is(err, ErrNonFinite) {
		t.Fatalf("ragged rows: err = %v, want shape error", err)
	}
}

func TestGBRegressorRejectsNonFinite(t *testing.T) {
	g := NewGBRegressor(BoostConfig{Rounds: 2})
	if err := g.FitRegressor([][]float64{{1}, {math.NaN()}}, []float64{1, 2}); !errors.Is(err, ErrNonFinite) {
		t.Errorf("NaN feature: err = %v, want ErrNonFinite", err)
	}
	if err := g.FitRegressor([][]float64{{1}, {2}}, []float64{1, math.Inf(1)}); !errors.Is(err, ErrNonFinite) {
		t.Errorf("Inf target: err = %v, want ErrNonFinite", err)
	}
}

func TestGBDTRejectsNonFinite(t *testing.T) {
	g := NewGBDT(BoostConfig{Rounds: 2})
	err := g.FitClassifier([][]float64{{1}, {math.Inf(1)}, {2}, {3}}, []int{0, 1, 0, 1}, 2)
	if !errors.Is(err, ErrNonFinite) {
		t.Errorf("Inf feature: err = %v, want ErrNonFinite", err)
	}
}

// randMatrix builds a deterministic feature matrix plus targets/labels
// shared by the batch-equality tests.
func randMatrix(seed int64, rows, cols int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, rows)
	for i := range x {
		x[i] = make([]float64, cols)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
	}
	return x
}

// ulp32 is the spacing of float32 values at v.
func ulp32(v float64) float64 {
	f := float32(math.Abs(v))
	return float64(math.Nextafter32(f, float32(math.Inf(1))) - f)
}

// TestTreePredictBatchMatchesPredict is the traversal differential: the
// one generic descent against the recursive walk above, over the same
// columns, on 1k random rows plus rows placed one float64 step either
// side of the root threshold. Float64 must agree bitwise. Float32
// descent must agree bitwise with the float32 walk, and with the float64
// answer wherever no split on the row's path has its feature within one
// float32 ULP of the threshold — the documented tie band.
func TestTreePredictBatchMatchesPredict(t *testing.T) {
	for _, mode := range []SplitMode{SplitHistogram, SplitExact} {
		t.Run(mode.String(), func(t *testing.T) {
			x := randMatrix(11, 300, 5)
			y := make([]float64, len(x))
			for i := range y {
				y[i] = x[i][0]*2 - x[i][1]*x[i][2]
			}
			tr, err := mode.FitTree(x, y, nil, allIdx(len(x)), TreeConfig{MaxDepth: 6, MinLeaf: 1})
			if err != nil {
				t.Fatal(err)
			}
			ft := tr.Flatten()
			q := randMatrix(12, 1000, 5)
			for _, to := range []float64{math.Inf(-1), math.Inf(1)} {
				edge := append([]float64(nil), q[0]...)
				edge[ft.Feature[0]] = math.Nextafter(ft.Threshold[0], to)
				q = append(q, edge)
			}
			q32 := rowsToF32(q)
			e := ensemble[float64]{init: []float64{0}, lr: 1}
			e.add(tr.nodes, 1)
			if err := e.finish(len(q[0])); err != nil {
				t.Fatal(err)
			}
			lane32 := quantize(&e).trees[0]

			got := tr.PredictBatch(q, nil)
			offBand := 0
			for i, row := range q {
				want := walk(ft, 0, row, nil)
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("row %d: descent %v != walk %v", i, got[i], want)
				}
				got32 := lane32.leaf(q32[i])
				if want32 := walk(ft, 0, q32[i], nil); math.Float32bits(got32) != math.Float32bits(want32) {
					t.Fatalf("row %d: f32 descent %v != f32 walk %v", i, got32, want32)
				}
				if got32 == float32(want) {
					continue
				}
				offBand++
				inBand := false
				walk(ft, 0, row, func(f int, thr float64) {
					inBand = inBand || math.Abs(row[f]-thr) <= ulp32(thr)
				})
				if !inBand {
					t.Fatalf("row %d: f32 leaf %v, f64 leaf %v, and no split within a float32 ULP", i, got32, want)
				}
			}
			if offBand == 0 {
				t.Error("no row routed differently in float32: the edge rows should")
			}
			// out reuse: a slice with capacity is reused, not reallocated.
			buf := make([]float64, 0, len(q))
			out := tr.PredictBatch(q, buf)
			if &out[0] != &buf[:1][0] {
				t.Error("PredictBatch did not reuse out's backing array")
			}
		})
	}
}

// TestGBDTBatchMatchesSingle: a batch of N is N batches of one, bitwise,
// at GOMAXPROCS 1 and 4.
func TestGBDTBatchMatchesSingle(t *testing.T) {
	const classes = 4
	x, y := synthClassData(250, 6, classes)
	g := NewGBDT(BoostConfig{Rounds: 10, Seed: 5, Tree: TreeConfig{MaxDepth: 4}})
	if err := g.FitClassifier(x, y, classes); err != nil {
		t.Fatal(err)
	}
	atProcs(t, func(t *testing.T) {
		batch := g.PredictProbaBatch(x)
		for i := range x {
			single := g.PredictProbaBatch(x[i : i+1])[0]
			for k := range single {
				if math.Float64bits(batch[i][k]) != math.Float64bits(single[k]) {
					t.Fatalf("row %d class %d: batch %v != single %v", i, k, batch[i][k], single[k])
				}
			}
		}
		if g.PredictProbaBatch(nil) != nil {
			t.Error("empty batch should return nil")
		}
	})
}

// TestGBRegressorBatchMatchesSingle is the regression analogue.
func TestGBRegressorBatchMatchesSingle(t *testing.T) {
	x := randMatrix(21, 300, 4)
	y := make([]float64, len(x))
	for i := range y {
		y[i] = 3*x[i][0] - x[i][1]*x[i][1]
	}
	g := NewGBRegressor(BoostConfig{Rounds: 25, Seed: 6})
	if err := g.FitRegressor(x, y); err != nil {
		t.Fatal(err)
	}
	atProcs(t, func(t *testing.T) {
		batch := g.PredictValueBatch(x)
		for i := range x {
			if single := g.PredictValueBatch(x[i : i+1])[0]; math.Float64bits(batch[i]) != math.Float64bits(single) {
				t.Fatalf("row %d: batch %v != single %v", i, batch[i], single)
			}
		}
		if g.PredictValueBatch(nil) != nil {
			t.Error("empty batch should return nil")
		}
	})
}
