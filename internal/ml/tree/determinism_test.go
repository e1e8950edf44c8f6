package tree

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"stencilmart/internal/testutil"
)

// synthClassData builds a deterministic multiclass dataset.
func synthClassData(rows, cols, classes int) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(99))
	x := make([][]float64, rows)
	y := make([]int, rows)
	for i := range x {
		x[i] = make([]float64, cols)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
		y[i] = int(math.Abs(x[i][0]+x[i][1])*3) % classes
	}
	return x, y
}

// fitGBDT trains one classifier and snapshots its probability outputs.
func fitGBDT(t *testing.T, x [][]float64, y []int, classes int) [][]float64 {
	t.Helper()
	g := NewGBDT(BoostConfig{Rounds: 15, Seed: 4})
	if err := g.FitClassifier(x, y, classes); err != nil {
		t.Fatal(err)
	}
	return g.PredictProbaBatch(x)
}

// TestGBDTDeterministicUnderGOMAXPROCS is the differential check for the
// parallel per-class boosting: the fitted ensemble's probabilities must be
// bit-identical whether training ran on one proc or all of them.
func TestGBDTDeterministicUnderGOMAXPROCS(t *testing.T) {
	const classes = 5
	x, y := synthClassData(400, 6, classes)
	var serial, parallel [][]float64
	testutil.WithGOMAXPROCS(t, 1, func() { serial = fitGBDT(t, x, y, classes) })
	testutil.WithGOMAXPROCS(t, runtime.NumCPU(), func() { parallel = fitGBDT(t, x, y, classes) })
	for i := range serial {
		for k := range serial[i] {
			if math.Float64bits(serial[i][k]) != math.Float64bits(parallel[i][k]) {
				t.Fatalf("row %d class %d: serial proba %v != parallel %v", i, k, serial[i][k], parallel[i][k])
			}
		}
	}
}

// TestGBRegressorDeterministicUnderGOMAXPROCS does the same for the
// regressor, whose tree fits are serial: the one thing that fans out is
// the per-feature binning of the shared index, and the fitted state must
// not depend on how many workers binned it.
func TestGBRegressorDeterministicUnderGOMAXPROCS(t *testing.T) {
	x, y, _ := binnedData(17, 512, []int{0, 0, 0, 9, 2, 1, 33, 0}, 2)
	fit := func() string {
		g := NewGBRegressor(BoostConfig{Rounds: 20, Seed: 9})
		if err := g.FitRegressor(x, y); err != nil {
			t.Fatal(err)
		}
		return stateDigest(t, g.State())
	}
	var serial, parallel string
	testutil.WithGOMAXPROCS(t, 1, func() { serial = fit() })
	testutil.WithGOMAXPROCS(t, 4, func() { parallel = fit() })
	if serial != parallel {
		t.Fatalf("fitted state differs: one proc %s, four %s", serial, parallel)
	}
}

// TestHistogramFitDeterministicUnderGOMAXPROCS targets a single tree fit:
// binning sorts features on the pool into per-feature columns and
// transposes them afterwards, so the index — codes, bin counts,
// thresholds — and the tree grown on it with real hessians must be
// bitwise identical between one proc and four.
func TestHistogramFitDeterministicUnderGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const rows, cols = 1000, 12
	x := randMatrix(23, rows, cols)
	y := make([]float64, rows)
	h := make([]float64, rows)
	for i := range x {
		y[i] = x[i][0] - x[i][1]*x[i][2] + 0.1*rng.NormFloat64()
		h[i] = 0.5 + rng.Float64()
	}
	fit := func() (*histIndex, []float64) {
		tr, err := FitTree(x, y, h, allIdx(rows), TreeConfig{MaxDepth: 7, MinLeaf: 2})
		if err != nil {
			t.Fatal(err)
		}
		return buildHistIndex(x, maxHistBins), tr.PredictBatch(x, nil)
	}
	var serialHI, parallelHI *histIndex
	var serial, parallel []float64
	testutil.WithGOMAXPROCS(t, 1, func() { serialHI, serial = fit() })
	testutil.WithGOMAXPROCS(t, 4, func() { parallelHI, parallel = fit() })
	if !reflect.DeepEqual(serialHI, parallelHI) {
		t.Fatal("histogram index differs between one proc and four")
	}
	for i := range serial {
		if math.Float64bits(serial[i]) != math.Float64bits(parallel[i]) {
			t.Fatalf("row %d: serial %v != parallel %v", i, serial[i], parallel[i])
		}
	}
}

// TestEnsembleDeterministicPerMode re-runs the ensemble invariance check
// under each builder explicitly — the product's histogram builder and
// the exact oracle the differential tests compare it with.
func TestEnsembleDeterministicPerMode(t *testing.T) {
	const classes = 4
	x, y := synthClassData(300, 5, classes)
	for _, mode := range []SplitMode{SplitHistogram, SplitExact} {
		t.Run(mode.String(), func(t *testing.T) {
			fit := func() [][]float64 {
				g := NewGBDT(BoostConfig{Rounds: 8, Seed: 4, Tree: TreeConfig{MaxDepth: 3}})
				if err := g.fit(x, y, classes, mode.growers()); err != nil {
					t.Fatal(err)
				}
				return g.PredictProbaBatch(x)
			}
			var serial, parallel [][]float64
			testutil.WithGOMAXPROCS(t, 1, func() { serial = fit() })
			testutil.WithGOMAXPROCS(t, runtime.NumCPU(), func() { parallel = fit() })
			for i := range serial {
				for k := range serial[i] {
					if math.Float64bits(serial[i][k]) != math.Float64bits(parallel[i][k]) {
						t.Fatalf("row %d class %d: serial %v != parallel %v", i, k, serial[i][k], parallel[i][k])
					}
				}
			}
		})
	}
}
