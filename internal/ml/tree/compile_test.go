package tree

import (
	"math"
	"testing"
)

// rowsToF32 converts a float64 corpus to the f32 rows the compiled lane
// scores.
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

// TestCompiledEnsembleMatchesF64 holds the differential contract of the
// regression lane: the quantized ensemble must reproduce the float64
// ensemble within a tight relative tolerance — the only error
// sources are one f32 rounding per threshold/leaf/input and the f32
// accumulation order.
func TestCompiledEnsembleMatchesF64(t *testing.T) {
	x, yv, _ := benchData(600, 12, 5)
	g := NewGBRegressor(BoostConfig{Rounds: 30, Seed: 7, Tree: TreeConfig{MaxDepth: 6, MinLeaf: 3}})
	if err := g.FitRegressor(x, yv); err != nil {
		t.Fatal(err)
	}
	c, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.ens.trees) != len(g.ens.trees) {
		t.Fatalf("compiled %d trees, fitted %d", len(c.ens.trees), len(g.ens.trees))
	}
	want := g.PredictValueBatch(x)
	rows := rowsToF32(x)
	got := make([]float32, len(rows))
	c.PredictValueBatchF32(rows, got)
	for i := range want {
		diff := math.Abs(float64(got[i]) - want[i])
		if diff > 1e-3*math.Max(1, math.Abs(want[i])) {
			t.Fatalf("row %d: f32 %g vs f64 %g (diff %g)", i, got[i], want[i], diff)
		}
	}
}

// TestCompiledGBDTMatchesF64 holds the classification contract: class
// decisions identical wherever the float64 lane is not itself sitting on
// a tie (top-2 probability gap below the serving epsilon), and
// probabilities close everywhere.
func TestCompiledGBDTMatchesF64(t *testing.T) {
	const classes = 5
	x, _, yc := benchData(600, 12, classes)
	g := NewGBDT(BoostConfig{Rounds: 15, Seed: 7, Tree: TreeConfig{MaxDepth: 6}})
	if err := g.FitClassifier(x, yc, classes); err != nil {
		t.Fatal(err)
	}
	c, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.Classes() != classes {
		t.Fatalf("compiled classes = %d, want %d", c.Classes(), classes)
	}
	want := g.PredictProbaBatch(x)
	rows := rowsToF32(x)
	out := make([]float32, len(rows)*classes)
	c.PredictProbaBatchF32(rows, out)
	const tieEps = 1e-6
	ties := 0
	for i, p64 := range want {
		p32 := out[i*classes : (i+1)*classes]
		for k := range p64 {
			if d := math.Abs(float64(p32[k]) - p64[k]); d > 1e-3 {
				t.Fatalf("row %d class %d: f32 proba %g vs f64 %g", i, k, p32[k], p64[k])
			}
		}
		best, second := argTop2(p64)
		if p64[best]-p64[second] < tieEps {
			ties++
			continue // f64 lane is on a knife edge; either decision is fine
		}
		got := 0
		for k := range p32 {
			if p32[k] > p32[got] {
				got = k
			}
		}
		if got != best {
			t.Fatalf("row %d: f32 decision %d vs f64 %d (gap %g)", i, got, best, p64[best]-p64[second])
		}
	}
	if ties > len(x)/10 {
		t.Fatalf("%d/%d rows on decision ties — corpus too degenerate to test", ties, len(x))
	}
}

func argTop2(p []float64) (best, second int) {
	if p[1] > p[0] {
		best, second = 1, 0
	} else {
		best, second = 0, 1
	}
	for k := 2; k < len(p); k++ {
		switch {
		case p[k] > p[best]:
			best, second = k, best
		case p[k] > p[second]:
			second = k
		}
	}
	return best, second
}

func TestCompileUnfittedFails(t *testing.T) {
	if _, err := NewGBRegressor(BoostConfig{}).Compile(); err == nil {
		t.Error("Compile of unfitted GBRegressor should fail")
	}
	if _, err := NewGBDT(BoostConfig{}).Compile(); err == nil {
		t.Error("Compile of unfitted GBDT should fail")
	}
}

// TestAllocGateTreeF32 pins the zero-allocation contract of the compiled
// scoring paths.
func TestAllocGateTreeF32(t *testing.T) {
	const classes = 5
	x, yv, yc := benchData(256, 12, classes)
	rows := rowsToF32(x)

	g := NewGBRegressor(BoostConfig{Rounds: 20, Seed: 7, Tree: TreeConfig{MaxDepth: 6, MinLeaf: 3}})
	if err := g.FitRegressor(x, yv); err != nil {
		t.Fatal(err)
	}
	ce, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float32, len(rows))
	if n := testing.AllocsPerRun(10, func() { ce.PredictValueBatchF32(rows, out) }); n != 0 {
		t.Errorf("CompiledEnsemble allocs/op = %g, want 0", n)
	}

	d := NewGBDT(BoostConfig{Rounds: 10, Seed: 7, Tree: TreeConfig{MaxDepth: 6}})
	if err := d.FitClassifier(x, yc, classes); err != nil {
		t.Fatal(err)
	}
	cd, err := d.Compile()
	if err != nil {
		t.Fatal(err)
	}
	proba := make([]float32, len(rows)*classes)
	if n := testing.AllocsPerRun(10, func() { cd.PredictProbaBatchF32(rows, proba) }); n != 0 {
		t.Errorf("CompiledGBDT allocs/op = %g, want 0", n)
	}
}

// BenchmarkLaneTreeScore compares the float64 reference ensembles
// against their compiled f32 forms on a serving-sized batch — the
// `make bench-lanes` microbenchmark pair for the tree side.
func BenchmarkLaneTreeScore(b *testing.B) {
	const classes = 5
	x, yv, yc := benchData(1024, 12, classes)
	rows := rowsToF32(x)

	g := NewGBRegressor(BoostConfig{Rounds: 40, Seed: 7, Tree: TreeConfig{MaxDepth: 6, MinLeaf: 3}})
	if err := g.FitRegressor(x, yv); err != nil {
		b.Fatal(err)
	}
	ce, err := g.Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("regressor/f64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = g.PredictValueBatch(x)
		}
	})
	b.Run("regressor/f32", func(b *testing.B) {
		b.ReportAllocs()
		out := make([]float32, len(rows))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ce.PredictValueBatchF32(rows, out)
		}
	})

	d := NewGBDT(BoostConfig{Rounds: 15, Seed: 7, Tree: TreeConfig{MaxDepth: 6}})
	if err := d.FitClassifier(x, yc, classes); err != nil {
		b.Fatal(err)
	}
	cd, err := d.Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("gbdt/f64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = d.PredictProbaBatch(x)
		}
	})
	b.Run("gbdt/f32", func(b *testing.B) {
		b.ReportAllocs()
		out := make([]float32, len(rows)*classes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cd.PredictProbaBatchF32(rows, out)
		}
	})
}
