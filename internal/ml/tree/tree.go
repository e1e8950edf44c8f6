// Package tree implements CART regression trees and gradient boosting:
// GBDT for multiclass OC selection and GBRegressor for execution-time
// regression — the from-scratch stand-ins for the paper's XGBoost models.
//
// Tree induction has two selectable backbones (TreeConfig.Mode): the
// default LightGBM-style histogram splitter (histogram.go) bins every
// feature once per fit into quantile bins and finds splits by scanning
// per-bin gradient histograms, and the exact-greedy splitter below
// re-sorts the node's rows per feature per node — kept as the reference
// oracle the differential suite compares the histogram path against.
// Both append the nodes they decide straight to the tree's columns.
package tree

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Tree is a fitted CART regression tree: its nodes as parallel preorder
// columns (nodes.go), the one form fitting appends to, prediction
// descends, Compile quantizes and the checkpoint copies.
type Tree struct {
	nodes[float64]
}

// SplitMode selects the split-finding backbone.
type SplitMode int

const (
	// SplitHistogram (the zero value, hence the default) bins each
	// feature once per fit into at most MaxBins quantile bins and scans
	// per-bin gradient/hessian histograms with sibling subtraction —
	// O(bins) per (node, feature) after the one-time binning sort.
	SplitHistogram SplitMode = iota
	// SplitExact is the reference oracle: it re-sorts the node's rows per
	// feature per node and considers every distinct-value boundary.
	SplitExact
)

// String names the mode.
func (m SplitMode) String() string {
	switch m {
	case SplitHistogram:
		return "histogram"
	case SplitExact:
		return "exact"
	default:
		return fmt.Sprintf("SplitMode(%d)", int(m))
	}
}

// maxHistBins is the hard per-feature bin cap: bin codes are uint8.
const maxHistBins = 256

// TreeConfig controls tree induction.
type TreeConfig struct {
	// MaxDepth bounds the tree depth; 0 means 4.
	MaxDepth int
	// MinLeaf is the minimum samples per leaf; 0 means 2.
	MinLeaf int
	// Mode selects the split backbone; the zero value is SplitHistogram.
	Mode SplitMode
	// MaxBins bounds histogram bins per feature (histogram mode only);
	// 0 means 256, and values clamp to [2, 256].
	MaxBins int
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

// FitTree builds a regression tree on rows x (selected by idx) against
// target values y, minimizing squared error. The optional hessian
// weights h (nil = unweighted) make the leaf values Newton steps, as
// gradient-boosted classification requires. Inputs containing NaN or
// ±Inf are rejected with an error wrapping ErrNonFinite. In histogram
// mode the feature binning is built per call; the boosting ensembles use
// the internal entry point that bins once per ensemble fit.
func FitTree(x [][]float64, y, h []float64, idx []int, cfg TreeConfig) (*Tree, error) {
	if err := checkFeatures(x); err != nil {
		return nil, err
	}
	if err := checkFinite("target", y); err != nil {
		return nil, err
	}
	if err := checkFinite("hessian", h); err != nil {
		return nil, err
	}
	cfg.setDefaults()
	n, err := fitTree(x, y, h, idx, cfg, nil, credit{})
	if err != nil {
		return nil, err
	}
	return &Tree{n}, nil
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

// fitTree is the unvalidated core of FitTree: cfg must be normalized and
// x/y/h finite. The ensembles validate once up front and pass the
// histogram builder they keep for the whole fit, so the per-feature
// binning sort and the builder's buffers are paid once per ensemble fit
// instead of once per tree, with the credit their training scores take.
func fitTree(x [][]float64, y, h []float64, idx []int, cfg TreeConfig, hb *histBuilder, c credit) (nodes[float64], error) {
	if len(x) == 0 || len(y) != len(x) {
		return nodes[float64]{}, fmt.Errorf("tree: %d rows, %d targets", len(x), len(y))
	}
	if h != nil && len(h) != len(x) {
		return nodes[float64]{}, fmt.Errorf("tree: %d rows, %d hessians", len(x), len(h))
	}
	if len(idx) == 0 {
		return nodes[float64]{}, fmt.Errorf("tree: empty index set")
	}
	if cfg.Mode == SplitHistogram {
		if hb == nil {
			hb = newHistBuilder(buildHistIndex(x, cfg.MaxBins), cfg)
		}
		return hb.fit(y, h, idx, c), nil
	}
	b := &exactBuilder{x: x, y: y, h: h, cfg: cfg, cr: c}
	return b.fit(idx), nil
}

// exactBuilder grows a tree with exact-greedy splits: every node
// re-sorts its rows per feature and considers every distinct-value
// boundary. The row index set lives in one array partitioned in place
// per node (rows), the credit's left-out rows in another (oob), with ord
// as per-node sort scratch and tmp as partition scratch — no per-node
// append-grown slices.
type exactBuilder struct {
	x    [][]float64
	y, h []float64
	cfg  TreeConfig
	cr   credit
	rows []int
	oob  []int
	ord  []int
	tmp  []int
	out  nodes[float64]
}

func (b *exactBuilder) fit(idx []int) nodes[float64] {
	b.rows = append([]int(nil), idx...)
	b.oob = append([]int(nil), b.cr.oob...)
	b.ord = make([]int, len(idx))
	b.tmp = make([]int, 0, max(len(idx), len(b.oob)))
	b.build(0, len(idx), 0, len(b.oob), 0)
	return b.out
}

// leafValue returns sum(g)/sum(h) (Newton step) or the mean when
// unweighted. A small ridge term keeps the division stable.
func (b *exactBuilder) leafValue(seg []int) float64 {
	var sg, sh float64
	for _, i := range seg {
		sg += b.y[i]
		if b.h != nil {
			sh += b.h[i]
		} else {
			sh++
		}
	}
	return sg / (sh + 1e-9)
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

// build appends the subtree over rows[lo:hi] in preorder and returns its
// root's index; oob[olo:ohi] are the left-out rows that reach it.
func (b *exactBuilder) build(lo, hi, olo, ohi, depth int) int32 {
	seg, oob := b.rows[lo:hi], b.oob[olo:ohi]
	if depth >= b.cfg.MaxDepth || len(seg) < 2*b.cfg.MinLeaf {
		return b.leaf(seg, oob)
	}
	feat, thr, gain, ok := b.bestSplit(seg)
	if !ok {
		return b.leaf(seg, oob)
	}
	mid := lo + b.partition(seg, feat, thr)
	omid := olo + b.partition(oob, feat, thr)
	at := b.out.push(feat, thr, 0, gain)
	l := b.build(lo, mid, olo, omid, depth+1)
	r := b.build(mid, hi, omid, ohi, depth+1)
	b.out.left[at], b.out.right[at] = l, r
	return at
}

func (b *exactBuilder) leaf(seg, oob []int) int32 {
	v := b.leafValue(seg)
	creditLeaf(&b.cr, v, seg, oob)
	return b.out.push(-1, 0, v, 0)
}

// partition stably splits rows around the threshold — the test leaf
// applies — and returns how many go left: they compact to the front in
// place, the rest stage through tmp.
func (b *exactBuilder) partition(rows []int, feat int, thr float64) int {
	left := rows[:0]
	rest := b.tmp[:0]
	for _, i := range rows {
		if b.x[i][feat] <= thr {
			left = append(left, i)
		} else {
			rest = append(rest, i)
		}
	}
	b.tmp = rest
	copy(rows[len(left):], rest)
	return len(left)
}

// bestSplit scans every feature for the split maximizing gain.
func (b *exactBuilder) bestSplit(seg []int) (feat int, thr, gain float64, ok bool) {
	var totG, totH float64
	for _, i := range seg {
		totG += b.y[i]
		totH += b.weight(i)
	}
	parent := gainTerm(totG, totH)
	gain = 1e-12
	nf := len(b.x[seg[0]])
	order := b.ord[:len(seg)]
	copy(order, seg)
	for f := 0; f < nf; f++ {
		sort.Slice(order, func(a, c int) bool { return b.x[order[a]][f] < b.x[order[c]][f] })
		var lg, lh float64
		ln := 0
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			lg += b.y[i]
			lh += b.weight(i)
			ln++
			// Only split between distinct feature values.
			if b.x[order[k]][f] == b.x[order[k+1]][f] {
				continue
			}
			if ln < b.cfg.MinLeaf || len(order)-ln < b.cfg.MinLeaf {
				continue
			}
			g := gainTerm(lg, lh) + gainTerm(totG-lg, totH-lh) - parent
			if g > gain {
				gain = g
				feat = f
				thr = midpoint(b.x[order[k]][f], b.x[order[k+1]][f])
				ok = true
			}
		}
	}
	return feat, thr, gain, ok
}

func (b *exactBuilder) weight(i int) float64 {
	if b.h != nil {
		return b.h[i]
	}
	return 1
}
