// Package tree implements CART regression trees and gradient boosting:
// GBDT for multiclass OC selection and GBRegressor for execution-time
// regression — the from-scratch stand-ins for the paper's XGBoost models.
//
// Trees grow with one LightGBM-style histogram builder (histogram.go):
// an ensemble fit bins every feature once into quantile bins, and each
// node's split comes from a scan of per-bin gradient histograms. The
// builder appends the nodes it decides straight to the tree's columns.
package tree

import (
	"errors"
	"fmt"
	"math"
)

// maxHistBins is the hard per-feature bin cap: bin codes are uint8.
const maxHistBins = 256

// TreeConfig controls tree induction.
type TreeConfig struct {
	// MaxDepth bounds the tree depth; 0 means 4.
	MaxDepth int
	// MinLeaf is the minimum samples per leaf; 0 means 2.
	MinLeaf int
	// Mode is the checkpoint manifest's spelling of a choice fits no
	// longer have; it holds nothing and can be set to nothing.
	Mode histogramOnly
	// MaxBins bounds histogram bins per feature; 0 means 256, and values
	// clamp to [2, 256].
	MaxBins int
}

// histogramOnly keeps the manifest's "Mode":0, the number that once chose
// the histogram builder over an exact-greedy one. It has one value,
// written as 0; a manifest holding any other number is refused.
type histogramOnly struct{}

func (histogramOnly) MarshalJSON() ([]byte, error) { return []byte("0"), nil }

func (*histogramOnly) UnmarshalJSON(b []byte) error {
	if string(b) != "0" {
		return fmt.Errorf("tree: split mode %s, this build has only the histogram builder (0)", b)
	}
	return nil
}

func (c *TreeConfig) setDefaults() {
	if c.MaxDepth == 0 {
		c.MaxDepth = 4
	}
	if c.MinLeaf == 0 {
		c.MinLeaf = 2
	}
	if c.MaxBins <= 0 || c.MaxBins > maxHistBins {
		c.MaxBins = maxHistBins
	}
	if c.MaxBins < 2 {
		c.MaxBins = 2
	}
}

// ErrNonFinite tags NaN/Inf inputs rejected by the fitting entry points.
// A NaN feature would silently misroute its row at every `<=` comparison
// (NaN compares false, so the row always goes right), so fits fail loudly
// instead.
var ErrNonFinite = errors.New("non-finite input")

// checkFeatures rejects NaN/Inf feature values and ragged rows.
func checkFeatures(x [][]float64) error {
	if len(x) == 0 {
		return nil
	}
	nf := len(x[0])
	for i, row := range x {
		if len(row) != nf {
			return fmt.Errorf("tree: row %d has %d features, row 0 has %d", i, len(row), nf)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("tree: %w: feature %d of row %d is %v", ErrNonFinite, j, i, v)
			}
		}
	}
	return nil
}

// checkFinite rejects NaN/Inf entries in a target or hessian vector.
func checkFinite(name string, v []float64) error {
	for i, f := range v {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("tree: %w: %s %d is %v", ErrNonFinite, name, i, f)
		}
	}
	return nil
}

// credit is where a boosting round's tree adds what it learned: as a
// builder pushes a leaf, it adds lr × the leaf's value to score[i*stride]
// for every row i the leaf holds — the sampled rows the tree was grown on
// and the rows oob the round left out, which the builder routes down the
// same splits without counting them. So a fit never descends its own
// tree. The zero value credits nothing.
type credit struct {
	oob    []int
	score  []float64
	stride int
	lr     float64
}

// creditLeaf credits a leaf of value v to its sampled and left-out rows.
func creditLeaf[I int | int32](c *credit, v float64, seg, oob []I) {
	if c.score == nil {
		return
	}
	for _, rows := range [2][]I{seg, oob} {
		for _, i := range rows {
			c.score[int(i)*c.stride] += c.lr * v
		}
	}
}

// impurity is the weighted sum of squares proxy: -(sum g)^2 / sum h.
func gainTerm(sg, sh float64) float64 { return sg * sg / (sh + 1e-9) }

// midpoint is the split threshold between two neighbouring values of a
// feature, lo < next: halfway, unless they are so close that the sum
// rounds onto next. Rows equal to next train right of the split but
// would then descend left of it (`<=`), so lo itself separates them.
func midpoint(lo, next float64) float64 {
	if m := (lo + next) / 2; m < next {
		return m
	}
	return lo
}
