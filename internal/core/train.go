package core

import (
	"context"
	"fmt"

	"stencilmart/internal/ml"
	"stencilmart/internal/par"
)

// Trained holds the full-corpus models TrainAll fits: one classifier per
// (catalog GPU, dimensionality) and one regressor per dimensionality.
// These are the deployed models a checkpoint persists — the train-once
// half of the paper's train-once/predict-cheaply contract.
type Trained struct {
	ClassifierKind ClassifierKind
	RegressorKind  RegressorKind
	// Classifiers maps arch name → dims → fitted model.
	Classifiers map[string]map[int]ml.Classifier
	// Regressors maps dims → fitted cross-architecture regressor.
	Regressors map[int]*TrainedRegressor
}

// trainDims lists the dimensionalities with corpus support.
func (f *Framework) trainDims() []int {
	var out []int
	for _, d := range []int{2, 3} {
		if len(f.StencilIndices(d)) > 0 {
			out = append(out, d)
		}
	}
	return out
}

// classifierSeed derives the deterministic training seed for one
// (arch, dims) classifier.
func (f *Framework) classifierSeed(archIdx, dims int) int64 {
	return f.Cfg.Seed + 10000 + int64(archIdx)*100 + int64(dims)
}

// regressorSeed derives the deterministic training seed for one dims
// regressor.
func (f *Framework) regressorSeed(dims int) int64 {
	return f.Cfg.Seed + 20000 + int64(dims)
}

// TrainAll fits the serving models on the full corpus: the chosen
// classifier mechanism for every (catalog GPU, dimensionality) pair and
// the chosen regressor mechanism per dimensionality, stored on the
// framework for ServePredict and Save. Cells train concurrently on the
// shared pool; each owns its model and derives its own seed, so the
// fitted set is identical to a serial loop under any GOMAXPROCS.
// Cancelling ctx abandons training and leaves Trained nil.
func (f *Framework) TrainAll(ctx context.Context, ck ClassifierKind, rk RegressorKind) error {
	if ctx == nil {
		ctx = context.Background()
	}
	dims := f.trainDims()
	if len(dims) == 0 {
		return fmt.Errorf("core: empty corpus, nothing to train")
	}
	f.Trained = nil // invalidate any previous set while retraining
	tr := &Trained{
		ClassifierKind: ck,
		RegressorKind:  rk,
		Classifiers:    make(map[string]map[int]ml.Classifier),
		Regressors:     make(map[int]*TrainedRegressor),
	}

	type cell struct{ archIdx, dims int }
	var cells []cell
	for ai := range f.Dataset.Archs {
		for _, d := range dims {
			cells = append(cells, cell{ai, d})
		}
	}
	classifiers, err := par.Map(ctx, len(cells), 0, func(i int) (ml.Classifier, error) {
		c := cells[i]
		cls, _, err := f.TrainClassifier(ck, c.archIdx, c.dims, f.StencilIndices(c.dims), f.classifierSeed(c.archIdx, c.dims))
		return cls, err
	})
	if err != nil {
		return err
	}
	for i, c := range cells {
		name := f.Dataset.Archs[c.archIdx].Name
		if tr.Classifiers[name] == nil {
			tr.Classifiers[name] = make(map[int]ml.Classifier)
		}
		tr.Classifiers[name][c.dims] = classifiers[i]
	}

	regressors, err := par.Map(ctx, len(dims), 0, func(i int) (*TrainedRegressor, error) {
		d := dims[i]
		return f.TrainRegressor(rk, d, f.dimsInstances(d), f.regressorSeed(d))
	})
	if err != nil {
		return err
	}
	for i, d := range dims {
		tr.Regressors[d] = regressors[i]
	}
	f.Trained = tr
	return nil
}

// requireTrained returns the trained set or a descriptive error.
func (f *Framework) requireTrained() (*Trained, error) {
	if f.Trained == nil {
		return nil, fmt.Errorf("core: framework has no trained models (run TrainAll or load a checkpoint)")
	}
	return f.Trained, nil
}
