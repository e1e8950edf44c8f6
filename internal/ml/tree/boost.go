package tree

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"stencilmart/internal/ml"
	"stencilmart/internal/par"
)

// BoostConfig controls gradient boosting for both the classifier and the
// regressor.
type BoostConfig struct {
	// Rounds is the number of boosting iterations; 0 means 60.
	Rounds int
	// LearningRate is the shrinkage; 0 means 0.1.
	LearningRate float64
	// Subsample is the per-round row-sampling fraction; 0 means 0.8.
	Subsample float64
	// Tree configures the base learners.
	Tree TreeConfig
	// Seed drives row subsampling.
	Seed int64
}

func (c *BoostConfig) setDefaults() {
	if c.Rounds == 0 {
		c.Rounds = 60
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.1
	}
	if c.Subsample == 0 {
		c.Subsample = 0.8
	}
	c.Tree.setDefaults()
}

// check refuses a normalized config no fit can honour: a Subsample above
// 1 would keep more rows than there are, and a negative or NaN one would
// silently keep them all.
func (c *BoostConfig) check() error {
	if !(c.Subsample > 0 && c.Subsample <= 1) {
		return fmt.Errorf("tree: Subsample %v outside (0, 1]", c.Subsample)
	}
	return nil
}

// sampleRows splits one permutation of the rows into the round's
// subsample, drawn without replacement, and the rows it leaves out. A
// fraction that would keep fewer than two rows keeps them all.
func sampleRows(n int, frac float64, rng *rand.Rand) (idx, oob []int) {
	k := int(frac * float64(n))
	if k < 2 {
		k = n
	}
	perm := rng.Perm(n)
	return perm[:k], perm[k:]
}

// ensembleHistIndex builds the shared histogram index for an ensemble
// fit, or nil in exact mode. Bins depend only on x — not on gradients or
// the per-round subsample — so one index serves every round and class.
// A tree fit itself is serial: an ensemble's parallelism is this binning
// and, in GBDT, a round's independent class trees.
func ensembleHistIndex(x [][]float64, cfg TreeConfig) *histIndex {
	if cfg.Mode != SplitHistogram {
		return nil
	}
	return buildHistIndex(x, cfg.MaxBins)
}

// GBRegressor is a gradient-boosted regression ensemble with squared
// loss — the stand-in for the paper's XGBoost GBRegressor.
type GBRegressor struct {
	cfg BoostConfig
	ens ensemble[float64] // init is the one base value (the target mean)
}

// NewGBRegressor returns an unfitted regressor.
func NewGBRegressor(cfg BoostConfig) *GBRegressor {
	cfg.setDefaults()
	return &GBRegressor{cfg: cfg, ens: ensemble[float64]{init: []float64{0}, lr: cfg.LearningRate}}
}

// FitRegressor implements ml.Regressor. Inputs containing NaN or ±Inf
// are rejected with an error wrapping ErrNonFinite, a Subsample outside
// (0, 1] with a plain error.
func (g *GBRegressor) FitRegressor(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("tree: GBRegressor fit with %d rows, %d targets", len(x), len(y))
	}
	if err := g.cfg.check(); err != nil {
		return err
	}
	if err := checkFeatures(x); err != nil {
		return err
	}
	if err := checkFinite("target", y); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(g.cfg.Seed + 1))
	base := 0.0
	for _, v := range y {
		base += v
	}
	base /= float64(len(y))
	g.ens = ensemble[float64]{init: []float64{base}, lr: g.cfg.LearningRate}

	hb := newHistBuilder(ensembleHistIndex(x, g.cfg.Tree), g.cfg.Tree)
	pred := make([]float64, len(y))
	g.ens.scoreInto(x, pred)
	resid := make([]float64, len(y))
	for round := 0; round < g.cfg.Rounds; round++ {
		for i := range y {
			resid[i] = y[i] - pred[i]
		}
		idx, oob := sampleRows(len(y), g.cfg.Subsample, rng)
		t, err := fitTree(x, resid, nil, idx, g.cfg.Tree, hb, credit{oob: oob, score: pred, stride: 1, lr: g.cfg.LearningRate})
		if err != nil {
			return err
		}
		g.ens.trees = append(g.ens.trees, t)
	}
	return nil
}

// PredictValueBatch implements ml.Regressor: one pass per tree over the
// whole batch.
func (g *GBRegressor) PredictValueBatch(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	out := make([]float64, len(rows))
	g.ens.scoreInto(rows, out)
	return out
}

// NumTrees returns the fitted ensemble size.
func (g *GBRegressor) NumTrees() int { return len(g.ens.trees) }

// GBDT is a gradient-boosted multiclass classifier with softmax loss —
// the stand-in for the paper's XGBoost GBDT. Each round fits one tree per
// class to the softmax gradient with Newton leaf values.
type GBDT struct {
	cfg BoostConfig
	ens ensemble[float64] // init holds the class log-priors
}

// NewGBDT returns an unfitted classifier.
func NewGBDT(cfg BoostConfig) *GBDT {
	cfg.setDefaults()
	return &GBDT{cfg: cfg}
}

// FitClassifier implements ml.Classifier. Feature matrices containing
// NaN or ±Inf are rejected with an error wrapping ErrNonFinite, a
// Subsample outside (0, 1] with a plain error.
func (g *GBDT) FitClassifier(x [][]float64, y []int, numClasses int) error {
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("tree: GBDT fit with %d rows, %d labels", len(x), len(y))
	}
	if numClasses < 2 {
		return fmt.Errorf("tree: GBDT needs >= 2 classes, got %d", numClasses)
	}
	for i, l := range y {
		if l < 0 || l >= numClasses {
			return fmt.Errorf("tree: label %d at row %d outside [0,%d)", l, i, numClasses)
		}
	}
	if err := g.cfg.check(); err != nil {
		return err
	}
	if err := checkFeatures(x); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(g.cfg.Seed + 2))

	// Log-prior initialization.
	counts := make([]float64, numClasses)
	for _, l := range y {
		counts[l]++
	}
	prior := make([]float64, numClasses)
	for k := range prior {
		prior[k] = math.Log((counts[k] + 1) / float64(len(y)+numClasses))
	}
	g.ens = ensemble[float64]{init: prior, lr: g.cfg.LearningRate}

	hi := ensembleHistIndex(x, g.cfg.Tree)
	n := len(x)
	// Each class slot keeps its builder and gradient buffers for the
	// whole fit.
	hbs := make([]*histBuilder, numClasses)
	for k := range hbs {
		hbs[k] = newHistBuilder(hi, g.cfg.Tree)
	}
	grads, hesses := make([]float64, n*numClasses), make([]float64, n*numClasses)
	// scores and probs are flat row-major n x numClasses, like every
	// batch the ensemble scores.
	scores := make([]float64, n*numClasses)
	g.ens.scoreInto(x, scores)
	probs := make([]float64, n*numClasses)
	kf := float64(numClasses-1) / float64(numClasses)

	for round := 0; round < g.cfg.Rounds; round++ {
		roundTrees := make([]nodes[float64], numClasses)
		for i := 0; i < len(scores); i += numClasses {
			ml.Softmax(probs[i:i+numClasses], scores[i:i+numClasses])
		}
		idx, oob := sampleRows(n, g.cfg.Subsample, rng)
		// Per-class trees fit in parallel: grad/hess derive from the
		// round-start probs snapshot, each class owns its buffers and its
		// roundTrees slot, and its tree credits only column k of scores,
		// so the fitted ensemble is identical to the serial class loop.
		if err := par.ForEach(context.Background(), numClasses, 0, func(k int) error {
			grad, hess := grads[k*n:(k+1)*n], hesses[k*n:(k+1)*n]
			for i := range x {
				yk := 0.0
				if y[i] == k {
					yk = 1
				}
				p := probs[i*numClasses+k]
				grad[i] = (yk - p) * kf
				hess[i] = p * (1 - p) * kf
			}
			t, err := fitTree(x, grad, hess, idx, g.cfg.Tree, hbs[k], credit{oob: oob, score: scores[k:], stride: numClasses, lr: g.cfg.LearningRate})
			if err != nil {
				return err
			}
			roundTrees[k] = t
			return nil
		}); err != nil {
			var errs par.Errors
			if errors.As(err, &errs) {
				return errs.First()
			}
			return err
		}
		g.ens.trees = append(g.ens.trees, roundTrees...)
	}
	return nil
}

// PredictProbaBatch implements ml.Classifier: one pass per (round,
// class) tree over the whole batch, then a softmax per row. The rows of
// the result share one backing array.
func (g *GBDT) PredictProbaBatch(rows [][]float64) [][]float64 {
	if len(rows) == 0 {
		return nil
	}
	flat := make([]float64, len(rows)*len(g.ens.init))
	g.ens.probaInto(rows, flat)
	return ml.Rows(flat, len(g.ens.init))
}

// NumClasses returns the number of classes fitted.
func (g *GBDT) NumClasses() int { return len(g.ens.init) }
