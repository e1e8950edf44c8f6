package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"stencilmart/internal/baseline"
	"stencilmart/internal/gpu"
	"stencilmart/internal/lazyrand"
	"stencilmart/internal/ml"
	"stencilmart/internal/ml/nn"
	"stencilmart/internal/ml/tree"
	"stencilmart/internal/opt"
	"stencilmart/internal/par"
	"stencilmart/internal/profile"
	"stencilmart/internal/sim"
	"stencilmart/internal/stats"
	"stencilmart/internal/tuner"
)

// ClassifierKind selects one of the paper's OC-selection mechanisms.
type ClassifierKind int

// The three classification mechanisms of Sec. IV-D.
const (
	ClassGBDT ClassifierKind = iota
	ClassConvNet
	ClassFcNet
)

// String returns the paper's mechanism name.
func (k ClassifierKind) String() string {
	switch k {
	case ClassGBDT:
		return "GBDT"
	case ClassConvNet:
		return "ConvNet"
	case ClassFcNet:
		return "FcNet"
	default:
		return fmt.Sprintf("ClassifierKind(%d)", int(k))
	}
}

// ClassifierKinds lists all mechanisms in report order.
var ClassifierKinds = []ClassifierKind{ClassConvNet, ClassFcNet, ClassGBDT}

// classInput builds the corpus-index encoder for a mechanism.
func (f *Framework) classInput(kind ClassifierKind) func(si int) []float64 {
	return func(si int) []float64 { return classEncode(kind, f.Dataset.Stencils[si]) }
}

// newClassifier constructs an untrained mechanism for the given
// dimensionality.
func (f *Framework) newClassifier(kind ClassifierKind, dims int, seed int64) (ml.Classifier, error) {
	classes := f.Grouping.NumClasses()
	switch kind {
	case ClassGBDT:
		cfg := f.Cfg.GBDT
		cfg.Seed = seed
		return tree.NewGBDT(cfg), nil
	case ClassConvNet:
		cfg := f.Cfg.ConvNetTrain
		cfg.Seed = seed
		return nn.NewConvNet(dims, classes, cfg, seed)
	case ClassFcNet:
		cfg := f.Cfg.FcNetTrain
		cfg.Seed = seed
		sample := f.classInput(ClassFcNet)
		indices := f.StencilIndices(dims)
		if len(indices) == 0 {
			return nil, fmt.Errorf("core: no %d-D stencils in corpus", dims)
		}
		return nn.NewFcNet(len(sample(indices[0])), classes, f.Cfg.FcNetLayers, f.Cfg.FcNetWidth, cfg, seed)
	default:
		return nil, fmt.Errorf("core: unknown classifier kind %d", kind)
	}
}

// TrainClassifier fits a mechanism on the given stencil indices for one
// architecture's labels, returning the trained model and its input
// encoder.
func (f *Framework) TrainClassifier(kind ClassifierKind, archIdx, dims int, trainIdx []int, seed int64) (ml.Classifier, func(int) []float64, error) {
	cls, err := f.newClassifier(kind, dims, seed)
	if err != nil {
		return nil, nil, err
	}
	enc := f.classInput(kind)
	x := make([][]float64, len(trainIdx))
	for i, si := range trainIdx {
		x[i] = enc(si)
	}
	y := f.classLabels(archIdx, trainIdx)
	if err := cls.FitClassifier(x, y, f.Grouping.NumClasses()); err != nil {
		return nil, nil, err
	}
	return cls, enc, nil
}

// ClassifierAccuracy runs the k-fold protocol for one mechanism on one
// GPU and dimensionality, returning mean test accuracy (Fig. 9).
func (f *Framework) ClassifierAccuracy(kind ClassifierKind, archName string, dims int) (float64, error) {
	archIdx, _, err := f.ArchByName(archName)
	if err != nil {
		return 0, err
	}
	folds, _, err := f.stencilFolds(dims)
	if err != nil {
		return 0, err
	}
	// Folds train independently (each builds its own model from its own
	// seed), so they run concurrently on the shared pool; accuracies
	// collect in fold order, keeping the mean bit-identical to a serial
	// loop under any GOMAXPROCS.
	accs, err := par.Map(context.Background(), len(folds), 0, func(fi int) (float64, error) {
		trainIdx, testIdx := profile.TrainTest(folds, fi)
		cls, enc, err := f.TrainClassifier(kind, archIdx, dims, trainIdx, f.Cfg.Seed+int64(fi))
		if err != nil {
			return 0, err
		}
		truth := f.classLabels(archIdx, testIdx)
		probas := cls.PredictProbaBatch(encodeAll(enc, testIdx))
		pred := make([]int, len(testIdx))
		for i := range testIdx {
			pred[i] = ml.ArgMax(probas[i])
		}
		return stats.Accuracy(truth, pred)
	})
	if err != nil {
		return 0, err
	}
	return stats.Mean(accs), nil
}

// probaOne scores a single row: a batch of one.
func probaOne(cls ml.Classifier, row []float64) []float64 {
	return cls.PredictProbaBatch([][]float64{row})[0]
}

// encodeAll encodes every corpus index into a row set, the unit the
// batched predictors consume.
func encodeAll(enc func(int) []float64, indices []int) [][]float64 {
	rows := make([][]float64, len(indices))
	for i, si := range indices {
		rows[i] = enc(si)
	}
	return rows
}

// classOrder ranks classes by descending predicted probability.
func classOrder(proba []float64) []int {
	order := make([]int, len(proba))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return proba[order[a]] > proba[order[b]] })
	return order
}

// contextReps elects, from the training stencils only, the top class
// members for one (architecture, dimensionality) context: within each
// class, members are ranked by how many training stencils they win.
// A single global representative underserves broad classes (the ST
// family has 12 members); contextual reps recover most of the gap to the
// true best OC while still being derived purely from training data.
func (f *Framework) contextReps(archIdx int, trainIdx []int, perClass int) [][]opt.Opt {
	combos := opt.Combinations()
	wins := make([]int, len(combos))
	labels := f.Dataset.Labels(archIdx)
	for _, si := range trainIdx {
		wins[labels[si]]++
	}
	out := make([][]opt.Opt, f.Grouping.NumClasses())
	for c, members := range f.Grouping.Groups {
		ranked := append([]int(nil), members...)
		sort.Slice(ranked, func(a, b int) bool {
			if wins[ranked[a]] != wins[ranked[b]] {
				return wins[ranked[a]] > wins[ranked[b]]
			}
			return ranked[a] < ranked[b]
		})
		n := perClass
		if n > len(ranked) {
			n = len(ranked)
		}
		for _, m := range ranked[:n] {
			out[c] = append(out[c], combos[m])
		}
	}
	return out
}

// searchPredicted is Figs. 10/11's hedged search, not what /predict
// does: the SamplesPerOC budget is split between the top two members of
// the most probable class (2:1) and the runner-up class's best member
// (hedging against mispredictions exactly as Artemis hedges across its
// candidate extensions). The total budget matches the baselines'.
// /predict's tuneForClass instead spends the whole budget on the top
// class's single representative and moves on only if it crashes.
func (f *Framework) searchPredicted(proba []float64, archIdx, si int, arch gpu.Arch, reps [][]opt.Opt) float64 {
	order := classOrder(proba)
	budget := f.Cfg.SamplesPerOC

	var ocs []opt.Opt
	if len(order) > 0 {
		top := reps[order[0]]
		ocs = append(ocs, top...)
		if len(ocs) > 2 {
			ocs = ocs[:2]
		}
	}
	if len(order) > 1 && len(reps[order[1]]) > 0 {
		ocs = append(ocs, reps[order[1]][0])
	}
	if len(ocs) == 0 {
		return math.Inf(1)
	}
	// Budget split: half to the top candidate, the rest spread evenly.
	splits := make([]int, len(ocs))
	splits[0] = (budget + 1) / 2
	rest := budget - splits[0]
	for i := 1; i < len(splits); i++ {
		splits[i] = rest / (len(splits) - 1)
	}

	w := sim.DefaultWorkload(f.Dataset.Stencils[si])
	eval := f.Model.CellFn(w, arch)
	best := math.Inf(1)
	rng := rand.New(lazyrand.NewSource(0))
	for rank, oc := range ocs {
		if splits[rank] < 1 {
			continue
		}
		rng.Seed(f.Cfg.Seed + int64(si)*131 + int64(archIdx)*7 + int64(rank))
		if res, err := tuner.Search(eval, oc, w.S.Dims, splits[rank], rng); err == nil && res.Time < best {
			best = res.Time
		}
	}
	return best
}

// SpeedupVsBaseline evaluates a trained mechanism against a baseline
// strategy under equal parameter-search budgets, returning the geometric
// mean of baselineTime/stencilmartTime over held-out stencils across all
// folds (Figs. 10 and 11).
func (f *Framework) SpeedupVsBaseline(kind ClassifierKind, archName string, dims int, strat baseline.Strategy) (float64, error) {
	archIdx, arch, err := f.ArchByName(archName)
	if err != nil {
		return 0, err
	}
	folds, _, err := f.stencilFolds(dims)
	if err != nil {
		return 0, err
	}
	// Per-fold tuning shares f.Model across goroutines: the simulator is
	// safe for concurrent use, and identical (stencil, OC, params, arch)
	// cells price identically whether memoized or recomputed, so ratios
	// match the serial loop exactly; fold order is restored on merge.
	perFold, err := par.Map(context.Background(), len(folds), 0, func(fi int) ([]float64, error) {
		trainIdx, testIdx := profile.TrainTest(folds, fi)
		cls, enc, err := f.TrainClassifier(kind, archIdx, dims, trainIdx, f.Cfg.Seed+int64(fi))
		if err != nil {
			return nil, err
		}
		reps := f.contextReps(archIdx, trainIdx, 2)
		// One batched forward scores the whole held-out fold before tuning.
		probas := cls.PredictProbaBatch(encodeAll(enc, testIdx))
		var ratios []float64
		for ti, si := range testIdx {
			w := sim.DefaultWorkload(f.Dataset.Stencils[si])
			base, err := strat.Tune(f.Model, w, arch, f.Cfg.SamplesPerOC, f.Cfg.Seed+int64(si))
			if err != nil {
				continue // baseline has no runnable configuration
			}
			mine := f.searchPredicted(probas[ti], archIdx, si, arch, reps)
			if math.IsInf(mine, 1) {
				continue
			}
			ratios = append(ratios, base.Time/mine)
		}
		return ratios, nil
	})
	if err != nil {
		return 0, err
	}
	var ratios []float64
	for _, r := range perFold {
		ratios = append(ratios, r...)
	}
	if len(ratios) == 0 {
		return 0, fmt.Errorf("core: no comparable stencils for %s vs %s", kind, strat.Name())
	}
	return stats.GeoMean(ratios)
}
