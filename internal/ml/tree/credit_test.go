package tree

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"stencilmart/internal/ml"
	"stencilmart/internal/par"
)

// descentRegressor is GBRegressor's round loop from before a fit
// credited its rows as it built, kept verbatim as the oracle (only the
// signatures follow: sampleRows also returns the rows left out, and the
// trees come from grow's grower with the zero credit): each round fits a
// tree on its subsample, then walks every row of x down that tree.
func descentRegressor(g *GBRegressor, x [][]float64, y []float64, grow growers) error {
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
		idx, _ := sampleRows(len(y), g.cfg.Subsample, rng)
		t := gr.fit(resid, nil, idx, credit{})
		t.addTo(x, pred, 1, g.cfg.LearningRate)
		g.ens.add(t, g.cfg.Rounds)
	}
	return nil
}

// descentGBDT is GBDT's round loop from the same commit, the same way.
func descentGBDT(g *GBDT, x [][]float64, y []int, numClasses int, grow growers) error {
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
	grs := grow(x, g.cfg.Tree, numClasses)
	grads, hesses := make([]float64, n*numClasses), make([]float64, n*numClasses)
	scores := make([]float64, n*numClasses)
	g.ens.scoreInto(x, scores)
	probs := make([]float64, n*numClasses)
	kf := float64(numClasses-1) / float64(numClasses)

	for round := 0; round < g.cfg.Rounds; round++ {
		roundTrees := make([]nodes[float64], numClasses)
		for i := 0; i < len(scores); i += numClasses {
			ml.Softmax(probs[i:i+numClasses], scores[i:i+numClasses])
		}
		idx, _ := sampleRows(n, g.cfg.Subsample, rng)
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
			t := grs[k].fit(grad, hess, idx, credit{})
			roundTrees[k] = t
			t.addTo(x, scores[k:], numClasses, g.cfg.LearningRate)
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
	return nil
}

// TestCreditMatchesDescentOracle holds both ensembles' credit-as-you-build
// rounds to the descend-every-row loop they replaced: the fitted state
// digests must be the same bits, for every subsample fraction, leaf floor,
// depth and split mode, at one proc and at four. Each round's credits
// become the next round's residuals, so the digest pins them;
// TestCreditIsTheLeaf checks one tree's credits row by row.
func TestCreditMatchesDescentOracle(t *testing.T) {
	x, yv, yc := binnedData(31, 300, []int{2, 5, 0, 17, 1, 0, 3, 40}, 3)
	atProcs(t, func(t *testing.T) {
		for _, mode := range []SplitMode{SplitHistogram, SplitExact} {
			for _, sub := range []float64{0.5, 0.8, 1} {
				for _, minLeaf := range []int{1, 3} {
					for _, depth := range []int{1, 3, 7} {
						cfg := BoostConfig{Rounds: 6, Subsample: sub, Seed: 11,
							Tree: TreeConfig{MaxDepth: depth, MinLeaf: minLeaf}}
						name := fmt.Sprintf("%s/sub%v/minleaf%d/depth%d", mode, sub, minLeaf, depth)

						got, want := NewGBRegressor(cfg), NewGBRegressor(cfg)
						if err := got.fit(x, yv, mode.growers()); err != nil {
							t.Fatal(err)
						}
						if err := descentRegressor(want, x, yv, mode.growers()); err != nil {
							t.Fatal(err)
						}
						if g, w := stateDigest(t, got.State()), stateDigest(t, want.State()); g != w {
							t.Errorf("%s: GBRegressor state %s, oracle %s", name, g, w)
						}

						gc, wc := NewGBDT(cfg), NewGBDT(cfg)
						if err := gc.fit(x, yc, 3, mode.growers()); err != nil {
							t.Fatal(err)
						}
						if err := descentGBDT(wc, x, yc, 3, mode.growers()); err != nil {
							t.Fatal(err)
						}
						if g, w := stateDigest(t, gc.State()), stateDigest(t, wc.State()); g != w {
							t.Errorf("%s: GBDT state %s, oracle %s", name, g, w)
						}
					}
				}
			}
		}
	})
}

// TestCreditIsTheLeaf fits single trees with lr 1 onto zero scores:
// every row of x — sampled or left out — must then hold exactly the
// value of the leaf descending the tree reaches, and the slots between
// rows (stride 2) nothing. The cases between them close leaves by depth,
// by MinLeaf and for want of a split, in both modes.
func TestCreditIsTheLeaf(t *testing.T) {
	const rows = 240
	rng := rand.New(rand.NewSource(41))
	x := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range x {
		x[i] = []float64{rng.NormFloat64(), float64(rng.Intn(6)), rng.Float64()}
		// Constant left of 0 on feature 0: a node there finds no split.
		if x[i][0] > 0 {
			y[i] = x[i][1] + x[i][2]
		}
	}
	perm := rng.Perm(rows)
	idx, oob := perm[:rows/2], perm[rows/2:]
	for _, mode := range []SplitMode{SplitHistogram, SplitExact} {
		closed := map[string]bool{}
		for _, tc := range []TreeConfig{{MaxDepth: 3, MinLeaf: 1}, {MaxDepth: 12, MinLeaf: 9}} {
			tc.setDefaults()
			score := make([]float64, 2*rows)
			n := mode.growers()(x, tc, 1)[0].fit(y, nil, idx, credit{oob: oob, score: score, stride: 2, lr: 1})
			for i, row := range x {
				if want := n.leaf(row); math.Float64bits(score[2*i]) != math.Float64bits(want) || score[2*i+1] != 0 {
					t.Fatalf("%s %+v row %d: credited %v (next slot %v), its leaf holds %v", mode, tc, i, score[2*i], score[2*i+1], want)
				}
			}
			for _, reason := range leafClosures(&n, x, idx, tc) {
				closed[reason] = true
			}
		}
		for _, reason := range []string{"depth", "minleaf", "nosplit"} {
			if !closed[reason] {
				t.Errorf("%s: no leaf closed by %s", mode, reason)
			}
		}
	}
}

// leafClosures says why the builder closed each leaf, from its depth and
// the sampled rows that reach it: at MaxDepth, with fewer than 2*MinLeaf
// rows, or otherwise for want of a split.
func leafClosures(n *nodes[float64], x [][]float64, idx []int, cfg TreeConfig) map[int32]string {
	depth := map[int32]int{0: 0}
	out := map[int32]string{}
	for p := int32(0); int(p) < len(n.feature); p++ {
		if n.feature[p] >= 0 {
			depth[n.left[p]], depth[n.right[p]] = depth[p]+1, depth[p]+1
		}
	}
	reached := map[int32]int{}
	for _, i := range idx {
		p := int32(0)
		for n.feature[p] >= 0 {
			if x[i][n.feature[p]] <= n.thr[p] {
				p = n.left[p]
			} else {
				p = n.right[p]
			}
		}
		reached[p]++
	}
	for p, d := range depth {
		switch {
		case n.feature[p] >= 0:
		case d >= cfg.MaxDepth:
			out[p] = "depth"
		case reached[p] < 2*cfg.MinLeaf:
			out[p] = "minleaf"
		default:
			out[p] = "nosplit"
		}
	}
	return out
}

// TestBoostRefusesSubsampleOutsideUnitInterval: a fraction above 1 used
// to slice past the permutation and panic, a negative or NaN one to fit
// on every row; both ensembles now refuse them from the fit.
func TestBoostRefusesSubsampleOutsideUnitInterval(t *testing.T) {
	x, yv, yc := binnedData(3, 200, []int{4, 0, 9}, 2)
	for _, sub := range []float64{1.5, -0.5, math.NaN(), math.Inf(1)} {
		cfg := BoostConfig{Rounds: 2, Subsample: sub}
		if err := NewGBRegressor(cfg).FitRegressor(x, yv); err == nil || !strings.Contains(err.Error(), "Subsample") {
			t.Errorf("GBRegressor with Subsample %v: err %v", sub, err)
		}
		if err := NewGBDT(cfg).FitClassifier(x, yc, 2); err == nil || !strings.Contains(err.Error(), "Subsample") {
			t.Errorf("GBDT with Subsample %v: err %v", sub, err)
		}
	}
	if err := NewGBRegressor(BoostConfig{Rounds: 2, Subsample: 1}).FitRegressor(x, yv); err != nil {
		t.Errorf("Subsample 1 refused: %v", err)
	}
}
