package core

import (
	"context"
	"fmt"
	"math/rand"

	"stencilmart/internal/gpu"
	"stencilmart/internal/ml"
	"stencilmart/internal/ml/nn"
	"stencilmart/internal/ml/tree"
	"stencilmart/internal/opt"
	"stencilmart/internal/par"
	"stencilmart/internal/profile"
	"stencilmart/internal/stats"
	"stencilmart/internal/stencil"
)

// RegressorKind selects one of the paper's performance-prediction
// mechanisms (Sec. IV-E).
type RegressorKind int

// The three regression mechanisms of Fig. 12.
const (
	RegGB RegressorKind = iota
	RegMLP
	RegConvMLP
)

// String returns the paper's mechanism name.
func (k RegressorKind) String() string {
	switch k {
	case RegGB:
		return "GBRegressor"
	case RegMLP:
		return "MLP"
	case RegConvMLP:
		return "ConvMLP"
	default:
		return fmt.Sprintf("RegressorKind(%d)", int(k))
	}
}

// RegressorKinds lists all mechanisms in report order.
var RegressorKinds = []RegressorKind{RegConvMLP, RegMLP, RegGB}

// usesTensor reports whether the mechanism consumes the assigned tensor
// rather than the Table II features.
func (k RegressorKind) usesTensor() bool { return k == RegConvMLP }

// usesScaling reports whether inputs are normalized to [0,1] (network
// mechanisms only, per Sec. IV-E).
func (k RegressorKind) usesScaling() bool { return k != RegGB }

// TrainedRegressor couples a fitted regressor with its input encoding and
// scaling so predictions can be made for arbitrary instances.
type TrainedRegressor struct {
	kind   RegressorKind
	model  ml.Regressor
	xScale columnScaler
	yScale targetScaler
	f      *Framework
}

// dimsInstances returns the regression instances whose stencil has the
// given dimensionality, subsampled to MaxRegressionInstances. It selects
// by index and copies only the rows it keeps: the default corpus matches
// some 43,000 instances to keep 6,000.
func (f *Framework) dimsInstances(dims int) []profile.Instance {
	all := f.Dataset.Instances
	var keep []int
	for i := range all {
		if f.Dataset.Stencils[all[i].StencilIdx].Dims == dims {
			keep = append(keep, i)
		}
	}
	if limit := f.Cfg.MaxRegressionInstances; limit > 0 && len(keep) > limit {
		rng := rand.New(rand.NewSource(f.Cfg.Seed + 31))
		perm := rng.Perm(len(keep))[:limit]
		for i, p := range perm {
			perm[i] = keep[p]
		}
		keep = perm
	}
	out := make([]profile.Instance, len(keep))
	for i, at := range keep {
		out[i] = all[at]
	}
	return out
}

// newRegressor constructs an untrained mechanism.
func (f *Framework) newRegressor(kind RegressorKind, dims, inDim int, seed int64) (ml.Regressor, error) {
	switch kind {
	case RegGB:
		cfg := f.Cfg.GBReg
		cfg.Seed = seed
		return tree.NewGBRegressor(cfg), nil
	case RegMLP:
		cfg := f.Cfg.MLPTrain
		cfg.Seed = seed
		return nn.NewMLP(inDim, f.Cfg.MLPLayers, f.Cfg.MLPWidth, cfg, seed)
	case RegConvMLP:
		cfg := f.Cfg.ConvMLPTrain
		cfg.Seed = seed
		return nn.NewConvMLP(dims, regTailWidth, cfg, seed)
	default:
		return nil, fmt.Errorf("core: unknown regressor kind %d", kind)
	}
}

// TrainRegressor fits a mechanism on the given instances.
func (f *Framework) TrainRegressor(kind RegressorKind, dims int, instances []profile.Instance, seed int64) (*TrainedRegressor, error) {
	if len(instances) == 0 {
		return nil, fmt.Errorf("core: no instances to train %s", kind)
	}
	x := make([][]float64, len(instances))
	y := make([]float64, len(instances))
	for i, in := range instances {
		row, err := f.instanceRow(kind, in)
		if err != nil {
			return nil, err
		}
		x[i] = row
		y[i] = regTarget(in.Time)
	}
	tr := &TrainedRegressor{kind: kind, f: f}
	if kind.usesScaling() {
		tr.xScale = fitScaler(x)
		tr.yScale = fitTargetScaler(y)
	}
	model, err := f.newRegressor(kind, dims, len(x[0]), seed)
	if err != nil {
		return nil, err
	}
	if err := model.FitRegressor(x, y); err != nil {
		return nil, err
	}
	tr.model = model
	return tr, nil
}

// PredictSeconds predicts the execution time of an instance in seconds.
func (t *TrainedRegressor) PredictSeconds(in profile.Instance) (float64, error) {
	out, err := t.PredictSecondsBatch([]profile.Instance{in})
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// PredictSecondsBatch predicts execution times for many instances at
// once, encoding all rows up front so batch-capable models score the
// whole set in one pass — a single batched forward for the nn
// regressors, one streamed traversal per tree for GBRegressor.
func (t *TrainedRegressor) PredictSecondsBatch(ins []profile.Instance) ([]float64, error) {
	rows := make([][]float64, len(ins))
	for i, in := range ins {
		row, err := t.f.instanceRow(t.kind, in)
		if err != nil {
			return nil, err
		}
		rows[i] = t.xScale.apply(row)
	}
	vals := t.model.PredictValueBatch(rows)
	t.invertSeconds(vals)
	return vals, nil
}

// PredictStencilSeconds predicts execution times for one (stencil, OC,
// params) triple on every given architecture in a single batched forward
// pass — the cross-GPU query behind the rent advisor. Rows build directly
// from the stencil, so unseen stencils (not in the training dataset) are
// first-class inputs.
func (t *TrainedRegressor) PredictStencilSeconds(s stencil.Stencil, oc opt.Opt, p opt.Params, archs []gpu.Arch) []float64 {
	rows := t.stencilRows(s, oc, p, archs)
	vals := t.model.PredictValueBatch(rows)
	t.invertSeconds(vals)
	return vals
}

// stencilRows encodes and scales the regressor inputs for one (stencil,
// OC, params) triple on every given architecture.
func (t *TrainedRegressor) stencilRows(s stencil.Stencil, oc opt.Opt, p opt.Params, archs []gpu.Arch) [][]float64 {
	rows := make([][]float64, len(archs))
	for i, a := range archs {
		rows[i] = t.xScale.apply(regRow(t.kind, s, oc, p, a))
	}
	return rows
}

// invertSeconds converts raw model outputs to seconds in place, undoing
// target scaling and the log2 transform.
func (t *TrainedRegressor) invertSeconds(vals []float64) {
	for i, v := range vals {
		if t.kind.usesScaling() {
			v = t.yScale.invert(v)
		}
		vals[i] = regInvert(v)
	}
}

// RegressorMAPE runs the k-fold protocol for one mechanism over the
// instances of one dimensionality and returns the mean test MAPE per
// architecture plus the overall mean (Fig. 12).
func (f *Framework) RegressorMAPE(kind RegressorKind, dims int) (map[string]float64, float64, error) {
	instances := f.dimsInstances(dims)
	if len(instances) < f.Cfg.Folds {
		return nil, 0, fmt.Errorf("core: %d instances cannot form %d folds", len(instances), f.Cfg.Folds)
	}
	folds, err := profile.Folds(len(instances), f.Cfg.Folds, f.Cfg.Seed+13)
	if err != nil {
		return nil, 0, err
	}
	// Folds train concurrently; each returns its test predictions in
	// testPos order and the per-arch series merge in fold order, so the
	// MAPEs are bit-identical to the serial loop.
	type foldPreds struct {
		archs []string
		truth []float64
		pred  []float64
	}
	perFold, err := par.Map(context.Background(), len(folds), 0, func(fi int) (foldPreds, error) {
		trainPos, testPos := profile.TrainTest(folds, fi)
		train := make([]profile.Instance, len(trainPos))
		for i, p := range trainPos {
			train[i] = instances[p]
		}
		tr, err := f.TrainRegressor(kind, dims, train, f.Cfg.Seed+int64(fi))
		if err != nil {
			return foldPreds{}, err
		}
		test := make([]profile.Instance, len(testPos))
		for i, p := range testPos {
			test[i] = instances[p]
		}
		preds, err := tr.PredictSecondsBatch(test)
		if err != nil {
			return foldPreds{}, err
		}
		fp := foldPreds{pred: preds}
		for _, in := range test {
			fp.archs = append(fp.archs, in.Arch)
			fp.truth = append(fp.truth, in.Time)
		}
		return fp, nil
	})
	if err != nil {
		return nil, 0, err
	}
	truthByArch := map[string][]float64{}
	predByArch := map[string][]float64{}
	var allTruth, allPred []float64
	for _, fp := range perFold {
		for i, arch := range fp.archs {
			truthByArch[arch] = append(truthByArch[arch], fp.truth[i])
			predByArch[arch] = append(predByArch[arch], fp.pred[i])
			allTruth = append(allTruth, fp.truth[i])
			allPred = append(allPred, fp.pred[i])
		}
	}
	out := make(map[string]float64, len(truthByArch))
	for arch, truth := range truthByArch {
		m, err := stats.MAPE(truth, predByArch[arch])
		if err != nil {
			return nil, 0, err
		}
		out[arch] = m
	}
	overall, err := stats.MAPE(allTruth, allPred)
	if err != nil {
		return nil, 0, err
	}
	return out, overall, nil
}

// MLPSweepPoint is one cell of the Fig. 13 sensitivity study.
type MLPSweepPoint struct {
	Layers int
	Width  int
	MAPE   float64
}

// MLPSweep trains MLPs across the hidden-layer and width grid on one
// train/test split and reports test MAPE per cell (Fig. 13).
func (f *Framework) MLPSweep(dims int, layerCounts, widths []int) ([]MLPSweepPoint, error) {
	instances := f.dimsInstances(dims)
	if len(instances) < 10 {
		return nil, fmt.Errorf("core: %d instances too few for the MLP sweep", len(instances))
	}
	folds, err := profile.Folds(len(instances), 5, f.Cfg.Seed+17)
	if err != nil {
		return nil, err
	}
	trainPos, testPos := profile.TrainTest(folds, 0)
	train := make([]profile.Instance, len(trainPos))
	for i, p := range trainPos {
		train[i] = instances[p]
	}
	test := make([]profile.Instance, len(testPos))
	truth := make([]float64, len(testPos))
	for i, p := range testPos {
		test[i] = instances[p]
		truth[i] = instances[p].Time
	}
	// The sweep mutates f.Cfg per cell, so it stays serial; the training
	// inside each cell already uses the nn batch parallelism.
	var out []MLPSweepPoint
	saveLayers, saveWidth := f.Cfg.MLPLayers, f.Cfg.MLPWidth
	defer func() { f.Cfg.MLPLayers, f.Cfg.MLPWidth = saveLayers, saveWidth }()
	for _, l := range layerCounts {
		for _, w := range widths {
			f.Cfg.MLPLayers, f.Cfg.MLPWidth = l, w
			tr, err := f.TrainRegressor(RegMLP, dims, train, f.Cfg.Seed+int64(l*10000+w))
			if err != nil {
				return nil, err
			}
			pred, err := tr.PredictSecondsBatch(test)
			if err != nil {
				return nil, err
			}
			m, err := stats.MAPE(truth, pred)
			if err != nil {
				return nil, err
			}
			out = append(out, MLPSweepPoint{Layers: l, Width: w, MAPE: m})
		}
	}
	return out, nil
}
