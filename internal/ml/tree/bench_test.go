package tree

import (
	"math"
	"math/rand"
	"testing"
)

// benchData builds the fixed corpus shared by the training benchmarks:
// continuous features (every column overflows the bin budget, so the
// histogram path does real quantile binning) with a smooth regression
// target and a label derived from a feature mix.
func benchData(rows, feats, classes int) (x [][]float64, yv []float64, yc []int) {
	rng := rand.New(rand.NewSource(42))
	x = make([][]float64, rows)
	yv = make([]float64, rows)
	yc = make([]int, rows)
	for i := range x {
		x[i] = make([]float64, feats)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
		yv[i] = 3*x[i][0] - 2*x[i][1]*x[i][1] + x[i][2]*x[i][3] + 0.1*rng.NormFloat64()
		yc[i] = int(math.Abs(x[i][0]+2*x[i][1]+x[i][2])*2) % classes
	}
	return x, yv, yc
}

func benchModes(b *testing.B, run func(b *testing.B, mode SplitMode)) {
	for _, mode := range []SplitMode{SplitExact, SplitHistogram} {
		b.Run(mode.String(), func(b *testing.B) { run(b, mode) })
	}
}

func BenchmarkGBDTTrain(b *testing.B) {
	x, _, yc := benchData(1500, 12, 5)
	benchModes(b, func(b *testing.B, mode SplitMode) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := NewGBDT(BoostConfig{Rounds: 15, Seed: 7, Tree: TreeConfig{MaxDepth: 6}})
			if err := g.fit(x, yc, 5, mode.growers()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkGBRegressorTrain(b *testing.B) {
	x, yv, _ := benchData(1500, 12, 5)
	benchModes(b, func(b *testing.B, mode SplitMode) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := NewGBRegressor(BoostConfig{Rounds: 40, Seed: 7, Tree: TreeConfig{MaxDepth: 6, MinLeaf: 3}})
			if err := g.fit(x, yv, mode.growers()); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The product's regime, the opposite of the 12 x 256-bin case above:
	// the default preset's regression matrix (6,000 x 44, a median of five
	// bins per column) at its tree shape, cut to 20 rounds so the race
	// smoke stays quick. Run with -cpu 1,2: a fit must not get slower
	// when it is given a second core.
	px, pyv, _ := binnedData(42, 6000, pipelineBins, 2)
	b.Run("pipeline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := NewGBRegressor(BoostConfig{Rounds: 20, Subsample: 0.8, Seed: 7, Tree: TreeConfig{MaxDepth: 7, MinLeaf: 3}})
			if err := g.FitRegressor(px, pyv); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHistAccumulate times the histogram pass alone on the
// pipeline-shaped matrix, per bin update (one row's one feature): a
// round's root node (a 0.8 subsample in shuffled order) and a deep
// child's few rows, where the pass is mostly cache misses on codes.
func BenchmarkHistAccumulate(b *testing.B) {
	x, yv, _ := binnedData(42, 6000, pipelineBins, 2)
	hb := &histBuilder{hi: buildHistIndex(x, maxHistBins)}
	hb.y = yv
	perm := rand.New(rand.NewSource(1)).Perm(len(x))
	for _, c := range []struct {
		name string
		rows int
	}{{"root", 4800}, {"small-child", 150}} {
		b.Run(c.name, func(b *testing.B) {
			seg := make([]int32, c.rows)
			for i := range seg {
				seg[i] = int32(perm[i])
			}
			nh := hb.alloc()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hb.accumulate(nh, seg)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.rows*hb.hi.nf), "ns/update")
		})
	}
}

func BenchmarkTreePredictBatch(b *testing.B) {
	x, yv, yc := benchData(4096, 12, 5)
	tr, err := FitTree(x, yv, nil, allIdx(len(x)), TreeConfig{MaxDepth: 6})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("tree/batches-of-one", func(b *testing.B) {
		b.ReportAllocs()
		out := make([]float64, 1)
		for i := 0; i < b.N; i++ {
			for j := range x {
				out = tr.PredictBatch(x[j:j+1], out)
			}
		}
		_ = out
	})
	b.Run("tree/batched", func(b *testing.B) {
		b.ReportAllocs()
		out := make([]float64, len(x))
		for i := 0; i < b.N; i++ {
			out = tr.PredictBatch(x, out)
		}
		_ = out
	})

	// The ensemble paths are where batching pays: one score/softmax
	// buffer per batch instead of per row, and every tree's columns
	// streamed over all rows while hot.
	g := NewGBDT(BoostConfig{Rounds: 15, Seed: 7, Tree: TreeConfig{MaxDepth: 6}})
	if err := g.FitClassifier(x, yc, 5); err != nil {
		b.Fatal(err)
	}
	b.Run("gbdt/batches-of-one", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range x {
				_ = g.PredictProbaBatch(x[j : j+1])
			}
		}
	})
	b.Run("gbdt/batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = g.PredictProbaBatch(x)
		}
	})
}
