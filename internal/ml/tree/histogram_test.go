package tree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"stencilmart/internal/ml"
)

// The ensembles are the ml models core trains and serves, in both lanes.
var (
	_ ml.Classifier    = (*GBDT)(nil)
	_ ml.Regressor     = (*GBRegressor)(nil)
	_ ml.ClassifierF32 = (*CompiledGBDT)(nil)
	_ ml.RegressorF32  = (*CompiledEnsemble)(nil)
)

// quantizedData builds features with few distinct values per column, so
// every feature fits in the bin budget and the histogram considers
// exactly the split boundaries exact greedy does.
func quantizedData(seed int64, rows, cols, levels int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range x {
		x[i] = make([]float64, cols)
		for j := range x[i] {
			x[i][j] = float64(rng.Intn(levels)) / float64(levels)
		}
		y[i] = 2*x[i][0] - x[i][1] + x[i][2]*x[i][0] + 0.01*rng.NormFloat64()
	}
	return x, y
}

// TestHistogramMatchesExactOnQuantizedData: when every feature has fewer
// distinct values than MaxBins, each value gets its own bin and the
// candidate split partitions coincide with exact greedy's, so both modes
// route every training row to a leaf holding the same row set. Training
// predictions must then agree. (Held-out rows may still route
// differently: deep nodes place their thresholds between node-local
// values in exact mode but between global bin edges in histogram mode —
// same partition of the node's rows, different cut point in the gap.)
func TestHistogramMatchesExactOnQuantizedData(t *testing.T) {
	x, y := quantizedData(31, 500, 4, 12)
	idx := allIdx(len(x))
	cfg := TreeConfig{MaxDepth: 5, MinLeaf: 2}
	th, err := FitTree(x, y, nil, idx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	te, err := SplitExact.FitTree(x, y, nil, idx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, lh := shape(th.Flatten(), 0)
	if _, le := shape(te.Flatten(), 0); lh != le {
		t.Fatalf("leaf counts differ: histogram %d, exact %d", lh, le)
	}
	ph, pe := th.PredictBatch(x, nil), te.PredictBatch(x, nil)
	for i := range x {
		if math.Abs(ph[i]-pe[i]) > 1e-9 {
			t.Fatalf("row %d: histogram %v != exact %v", i, ph[i], pe[i])
		}
	}
}

func TestBuildHistIndexProperties(t *testing.T) {
	x := randMatrix(41, 600, 5)
	const maxBins = 32
	hi := buildHistIndex(x, maxBins)
	if len(hi.codes) != 600*5 || hi.nf != 5 {
		t.Fatalf("index holds %d codes in rows of %d, want 600 rows of 5", len(hi.codes), hi.nf)
	}
	for f := 0; f < hi.nf; f++ {
		if hi.nbins[f] < 1 || hi.nbins[f] > maxBins {
			t.Errorf("feature %d has %d bins, budget %d", f, hi.nbins[f], maxBins)
		}
		if len(hi.thr[f]) != hi.nbins[f]-1 {
			t.Errorf("feature %d: %d thresholds for %d bins", f, len(hi.thr[f]), hi.nbins[f])
		}
		if !sort.Float64sAreSorted(hi.thr[f]) {
			t.Errorf("feature %d thresholds not ascending", f)
		}
		for i := range x {
			c := hi.codes[i*hi.nf+f]
			if int(c) >= hi.nbins[f] {
				t.Fatalf("feature %d row %d: code %d out of %d bins", f, i, c, hi.nbins[f])
			}
			// Codes must agree with the thresholds: value <= thr[b] iff
			// code <= b, which is what routing at predict time relies on.
			v := x[i][f]
			for b, thr := range hi.thr[f] {
				if (v <= thr) != (int(c) <= b) {
					t.Fatalf("feature %d row %d: value %v code %d inconsistent with thr[%d]=%v", f, i, v, c, b, thr)
				}
			}
		}
	}
}

func TestBuildHistIndexConstantFeature(t *testing.T) {
	x := [][]float64{{1, 7}, {2, 7}, {3, 7}}
	hi := buildHistIndex(x, 8)
	if hi.nbins[1] != 1 || len(hi.thr[1]) != 0 {
		t.Errorf("constant feature: %d bins, %d thresholds", hi.nbins[1], len(hi.thr[1]))
	}
}

// TestSplitBetweenAdjacentDoubles: the midpoint of two neighbouring
// doubles whose lower one has an odd mantissa rounds onto the upper one,
// and a threshold equal to the upper value sends its rows left at predict
// time after training put them right. Thresholds must stay below the next
// value, so every training row descends to the leaf it was counted in.
func TestSplitBetweenAdjacentDoubles(t *testing.T) {
	a := math.Nextafter(1, 2)
	b := math.Nextafter(a, 2)
	if (a+b)/2 != b {
		t.Fatalf("(a+b)/2 = %v does not round onto b = %v: the case is gone", (a+b)/2, b)
	}
	var x [][]float64
	var y []float64
	for i := 0; i < 8; i++ {
		x, y = append(x, []float64{a}, []float64{b}), append(y, 0, 10)
	}
	for _, mode := range []SplitMode{SplitHistogram, SplitExact} {
		tr, err := mode.FitTree(x, y, nil, allIdx(len(x)), TreeConfig{MaxDepth: 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, leaves := shape(tr.Flatten(), 0); leaves != 2 {
			t.Errorf("%s: %d leaves for a two-valued column, want 2", mode, leaves)
		}
		for i, p := range tr.PredictBatch(x, nil) {
			if math.Abs(p-y[i]) > 1e-6 {
				t.Errorf("%s: training row %d (x=%v) predicts %v, its leaf learned %v", mode, i, x[i][0], p, y[i])
			}
		}
	}

	vals := []float64{1}
	for len(vals) < 40 {
		vals = append(vals, math.Nextafter(vals[len(vals)-1], 2))
	}
	col := make([][]float64, len(vals))
	for i, v := range vals {
		col[i] = []float64{v}
	}
	for b, thr := range buildHistIndex(col, maxHistBins).thr[0] {
		if thr < vals[b] || thr >= vals[b+1] {
			t.Errorf("thr[%d] = %v outside [%v, %v)", b, thr, vals[b], vals[b+1])
		}
	}
}

func TestHistogramRespectsSubsampleIndex(t *testing.T) {
	// Fitting on a subset must only depend on the subset's rows: two
	// matrices agreeing on the subset rows give identical trees.
	x1 := randMatrix(51, 200, 3)
	y := make([]float64, len(x1))
	for i := range y {
		y[i] = x1[i][0] + x1[i][1]
	}
	idx := make([]int, 0, 100)
	for i := 0; i < 200; i += 2 {
		idx = append(idx, i)
	}
	t1, err := FitTree(x1, y, nil, idx, TreeConfig{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := randMatrix(52, 50, 3)
	preds := t1.PredictBatch(q, nil)
	// Leaf values must average only subset rows: all predictions are
	// bounded by the subset's target range.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, i := range idx {
		lo, hi = math.Min(lo, y[i]), math.Max(hi, y[i])
	}
	for i, p := range preds {
		if p < lo-1e-9 || p > hi+1e-9 {
			t.Fatalf("row %d: prediction %v outside subset target range [%v,%v]", i, p, lo, hi)
		}
	}
}

// cvAccuracy runs a deterministic 2-fold split and returns held-out
// accuracy for a GBDT under the given mode.
func cvAccuracy(t *testing.T, x [][]float64, y []int, classes int, mode SplitMode) float64 {
	t.Helper()
	half := len(x) / 2
	hits, total := 0, 0
	for fold := 0; fold < 2; fold++ {
		trX, trY := x[:half], y[:half]
		teX, teY := x[half:], y[half:]
		if fold == 1 {
			trX, trY, teX, teY = teX, teY, trX, trY
		}
		g := NewGBDT(BoostConfig{Rounds: 20, Seed: 13, Tree: TreeConfig{MaxDepth: 4}})
		if err := g.fit(trX, trY, classes, mode.growers()); err != nil {
			t.Fatal(err)
		}
		probs := g.PredictProbaBatch(teX)
		for i := range teX {
			if ml.ArgMax(probs[i]) == teY[i] {
				hits++
			}
			total++
		}
	}
	return float64(hits) / float64(total)
}

// cvMAPE is the regression analogue: held-out MAPE under the given mode.
func cvMAPE(t *testing.T, x [][]float64, y []float64, mode SplitMode) float64 {
	t.Helper()
	half := len(x) / 2
	var sum float64
	n := 0
	for fold := 0; fold < 2; fold++ {
		trX, trY := x[:half], y[:half]
		teX, teY := x[half:], y[half:]
		if fold == 1 {
			trX, trY, teX, teY = teX, teY, trX, trY
		}
		g := NewGBRegressor(BoostConfig{Rounds: 40, Seed: 13, Tree: TreeConfig{MaxDepth: 5, MinLeaf: 3}})
		if err := g.fit(trX, trY, mode.growers()); err != nil {
			t.Fatal(err)
		}
		preds := g.PredictValueBatch(teX)
		for i := range teX {
			sum += math.Abs(preds[i]-teY[i]) / math.Abs(teY[i])
			n++
		}
	}
	return sum / float64(n)
}

// TestHistogramCVNoWorseThanExact is the differential acceptance check:
// on held-out data the histogram path's accuracy/MAPE must be
// statistically no worse than the exact-greedy oracle's (within a small
// slack that absorbs binning noise).
func TestHistogramCVNoWorseThanExact(t *testing.T) {
	if testing.Short() {
		t.Skip("differential CV is slow")
	}
	// Gaussian blobs with noise features: learnable enough that both
	// modes land well above chance, so "no worse" is a real comparison.
	const classes = 5
	rng := rand.New(rand.NewSource(62))
	x := make([][]float64, 600)
	y := make([]int, len(x))
	for i := range x {
		k := i % classes
		x[i] = make([]float64, 8)
		x[i][0] = 3*math.Cos(2*math.Pi*float64(k)/classes) + rng.NormFloat64()
		x[i][1] = 3*math.Sin(2*math.Pi*float64(k)/classes) + rng.NormFloat64()
		for j := 2; j < 8; j++ {
			x[i][j] = rng.NormFloat64()
		}
		y[i] = k
	}
	accH := cvAccuracy(t, x, y, classes, SplitHistogram)
	accE := cvAccuracy(t, x, y, classes, SplitExact)
	if accH < 0.6 {
		t.Errorf("histogram CV accuracy %.4f on separable blobs, want >= 0.6", accH)
	}
	t.Logf("CV accuracy: histogram %.4f, exact %.4f", accH, accE)
	if accH < accE-0.05 {
		t.Errorf("histogram CV accuracy %.4f more than 0.05 below exact %.4f", accH, accE)
	}

	xr := randMatrix(61, 600, 6)
	yr := make([]float64, len(xr))
	for i := range yr {
		// Targets bounded away from zero keep MAPE well defined.
		yr[i] = 20 + 2*xr[i][0] - xr[i][1]*xr[i][2] + 0.1*xr[i][3]
	}
	mapeH := cvMAPE(t, xr, yr, SplitHistogram)
	mapeE := cvMAPE(t, xr, yr, SplitExact)
	t.Logf("CV MAPE: histogram %.4f, exact %.4f", mapeH, mapeE)
	if mapeH > 0.5 {
		t.Errorf("histogram CV MAPE %.4f on a smooth target, want <= 0.5", mapeH)
	}
	if mapeH > mapeE+0.05 {
		t.Errorf("histogram CV MAPE %.4f more than 0.05 above exact %.4f", mapeH, mapeE)
	}
}

// TestFeatureImportanceOrdering: targets built from a known feature
// hierarchy (feature 0 dominant, feature 1 secondary, rest noise) must
// come back in that order from gain-based importance — the same check
// the paper's Table II feature ranking rests on.
func TestFeatureImportanceOrdering(t *testing.T) {
	for _, mode := range []SplitMode{SplitHistogram, SplitExact} {
		t.Run(mode.String(), func(t *testing.T) {
			x := randMatrix(71, 500, 5)
			y := make([]float64, len(x))
			for i := range y {
				y[i] = 10*x[i][0] + 2*x[i][1] + 0.01*x[i][2]
			}
			g := NewGBRegressor(BoostConfig{Rounds: 30, Seed: 8, Tree: TreeConfig{MaxDepth: 4}})
			if err := g.fit(x, y, mode.growers()); err != nil {
				t.Fatal(err)
			}
			imp := g.FeatureImportance()
			if len(imp) == 0 {
				t.Fatal("no importance from fitted ensemble")
			}
			var total float64
			for _, v := range imp {
				if v < 0 {
					t.Fatalf("negative importance %v", v)
				}
				total += v
			}
			if math.Abs(total-1) > 1e-9 {
				t.Errorf("importance sums to %v, want 1", total)
			}
			if imp[0] < imp[1] || (len(imp) > 2 && imp[1] < imp[2]) {
				t.Errorf("importance ordering wrong: %v", imp)
			}
			if imp[0] < 0.5 {
				t.Errorf("dominant feature importance %.3f, want > 0.5", imp[0])
			}
		})
	}
}

func TestFeatureImportanceGBDT(t *testing.T) {
	// Labels derive only from the signs of features 0 and 1; features 2-4
	// are pure noise, so gain-based importance must concentrate on the
	// label-driving pair.
	const classes = 3
	x := randMatrix(91, 300, 5)
	y := make([]int, len(x))
	for i := range y {
		k := 0
		if x[i][0] > 0 {
			k++
		}
		if x[i][1] > 0 {
			k++
		}
		y[i] = k
	}
	g := NewGBDT(BoostConfig{Rounds: 10, Seed: 3, Tree: TreeConfig{MaxDepth: 3}})
	if err := g.FitClassifier(x, y, classes); err != nil {
		t.Fatal(err)
	}
	imp := g.FeatureImportance()
	if len(imp) == 0 {
		t.Fatal("no importance from fitted classifier")
	}
	var total float64
	for _, v := range imp {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("importance sums to %v, want 1", total)
	}
	if imp[0]+imp[1] < 0.6 {
		t.Errorf("label-driving features hold %.3f of gain, want > 0.6 (%v)", imp[0]+imp[1], imp)
	}
	var unfit GBDT
	if got := unfit.FeatureImportance(); got != nil {
		t.Errorf("unfitted importance = %v, want nil", got)
	}
}

func TestMaxBinsClamped(t *testing.T) {
	cfg := TreeConfig{MaxBins: 1000}
	cfg.setDefaults()
	if cfg.MaxBins != maxHistBins {
		t.Errorf("MaxBins 1000 clamped to %d, want %d", cfg.MaxBins, maxHistBins)
	}
	cfg = TreeConfig{MaxBins: 1}
	cfg.setDefaults()
	if cfg.MaxBins != 2 {
		t.Errorf("MaxBins 1 clamped to %d, want 2", cfg.MaxBins)
	}
	// A tiny bin budget still fits a usable (if coarse) tree.
	x, y := quantizedData(81, 100, 3, 20)
	tr, err := FitTree(x, y, nil, allIdx(len(x)), TreeConfig{MaxDepth: 3, MaxBins: 2})
	if err != nil {
		t.Fatal(err)
	}
	if depth, _ := shape(tr.Flatten(), 0); depth < 1 {
		t.Error("2-bin tree grew no splits")
	}
}
