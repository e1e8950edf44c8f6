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

// check refuses a normalized config no fit can honour, whether it came
// from a caller or a checkpoint: a learning rate that is not a finite
// positive number turns every prediction into NaN, the prior or its
// mirror image; a negative round count, depth or leaf floor fits the
// prior alone or nothing sensible; a Subsample above 1 would keep more
// rows than there are, and a negative or NaN one would silently keep
// them all.
func (c *BoostConfig) check() error {
	switch {
	case !(c.LearningRate > 0) || math.IsInf(c.LearningRate, 1):
		return fmt.Errorf("tree: LearningRate %v is not a finite number above 0", c.LearningRate)
	case c.Rounds < 0 || c.Tree.MaxDepth < 0 || c.Tree.MinLeaf < 0:
		return fmt.Errorf("tree: negative Rounds %d, MaxDepth %d or MinLeaf %d", c.Rounds, c.Tree.MaxDepth, c.Tree.MinLeaf)
	case !(c.Subsample > 0 && c.Subsample <= 1):
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

// grower grows the trees of one ensemble fit, one at a time: fit grows a
// tree on the idx rows of the fit's matrix against targets y (hessians h,
// nil meaning unit weights), crediting c as it pushes leaves.
type grower interface {
	fit(y, h []float64, idx []int, c credit) nodes[float64]
}

// growers makes an ensemble fit's n growers over x, one per GBDT class
// slot. Product fits use histGrowers; the package's tests pass the
// exact-greedy oracle's instead.
type growers func(x [][]float64, cfg TreeConfig, n int) []grower

// histGrowers returns n histogram builders over one shared bin index.
// Bins depend only on x — not on gradients or the per-round subsample —
// so one index serves every round and class. A tree fit itself is
// serial: an ensemble's parallelism is this binning and, in GBDT, a
// round's independent class trees.
func histGrowers(x [][]float64, cfg TreeConfig, n int) []grower {
	hi := buildHistIndex(x, cfg.MaxBins)
	gs := make([]grower, n)
	for k := range gs {
		gs[k] = &histBuilder{hi: hi, cfg: cfg}
	}
	return gs
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
// are rejected with an error wrapping ErrNonFinite, a config check
// refuses with a plain error.
func (g *GBRegressor) FitRegressor(x [][]float64, y []float64) error {
	return g.fit(x, y, histGrowers)
}

// fit is FitRegressor with the fit's trees grown by grow's growers.
func (g *GBRegressor) fit(x [][]float64, y []float64, grow growers) error {
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

	gr := grow(x, g.cfg.Tree, 1)[0]
	pred := make([]float64, len(y))
	g.ens.scoreInto(x, pred)
	resid := make([]float64, len(y))
	for round := 0; round < g.cfg.Rounds; round++ {
		for i := range y {
			resid[i] = y[i] - pred[i]
		}
		idx, oob := sampleRows(len(y), g.cfg.Subsample, rng)
		g.ens.add(gr.fit(resid, nil, idx, credit{oob: oob, score: pred, stride: 1, lr: g.cfg.LearningRate}), g.cfg.Rounds)
	}
	return g.ens.finish(len(x[0]))
}

// PredictValueBatch implements ml.Regressor, scoring the batch at once.
func (g *GBRegressor) PredictValueBatch(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	out := make([]float64, len(rows))
	g.ens.scoreInto(rows, out)
	return out
}

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
// NaN or ±Inf are rejected with an error wrapping ErrNonFinite, a config
// check refuses with a plain error.
func (g *GBDT) FitClassifier(x [][]float64, y []int, numClasses int) error {
	return g.fit(x, y, numClasses, histGrowers)
}

// fit is FitClassifier with the fit's trees grown by grow's growers.
func (g *GBDT) fit(x [][]float64, y []int, numClasses int, grow growers) error {
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

	n := len(x)
	// Each class slot keeps its grower and gradient buffers for the
	// whole fit.
	grs := grow(x, g.cfg.Tree, numClasses)
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
			roundTrees[k] = grs[k].fit(grad, hess, idx, credit{oob: oob, score: scores[k:], stride: numClasses, lr: g.cfg.LearningRate})
			return nil
		}); err != nil {
			var errs par.Errors
			if errors.As(err, &errs) {
				return errs.First()
			}
			return err
		}
		for _, t := range roundTrees {
			g.ens.add(t, g.cfg.Rounds*numClasses)
		}
	}
	return g.ens.finish(len(x[0]))
}

// PredictProbaBatch implements ml.Classifier: the batch's scores, then a
// softmax per row. The rows of the result share one backing array.
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
