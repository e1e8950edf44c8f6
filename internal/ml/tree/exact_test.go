package tree

import (
	"fmt"
	"sort"
)

// This file is the exact-greedy oracle the differential tests hold the
// histogram builder to, and the single-tree API they fit it through.
// Product fits grow every tree with histGrowers; a test reaches the
// oracle by handing the ensembles' unexported fit SplitExact.growers().

// SplitMode names the builder a test fits with.
type SplitMode int

const (
	// SplitHistogram is the builder product fits use (histogram.go).
	SplitHistogram SplitMode = iota
	// SplitExact is the reference oracle: it re-sorts the node's rows per
	// feature per node and considers every distinct-value boundary.
	SplitExact
)

// String names the mode, for subtest names.
func (m SplitMode) String() string {
	if m == SplitExact {
		return "exact"
	}
	return "histogram"
}

// growers is the seam value that grows an ensemble fit's trees with the
// mode's builder.
func (m SplitMode) growers() growers {
	if m == SplitExact {
		return exactGrowers
	}
	return histGrowers
}

// exactGrowers returns n exact-greedy builders over x.
func exactGrowers(x [][]float64, cfg TreeConfig, n int) []grower {
	gs := make([]grower, n)
	for k := range gs {
		gs[k] = &exactBuilder{x: x, cfg: cfg}
	}
	return gs
}

// Tree is one fitted CART regression tree on its own, outside an
// ensemble: its nodes as parallel preorder columns (nodes.go).
type Tree struct {
	nodes[float64]
}

// FitTree builds a regression tree with the histogram builder; see
// SplitMode.FitTree.
func FitTree(x [][]float64, y, h []float64, idx []int, cfg TreeConfig) (*Tree, error) {
	return SplitHistogram.FitTree(x, y, h, idx, cfg)
}

// FitTree builds a regression tree with the mode's builder on rows x
// (selected by idx) against target values y, minimizing squared error.
// The optional hessian weights h (nil = unweighted) make the leaf values
// Newton steps, as gradient-boosted classification requires. Inputs
// containing NaN or ±Inf are rejected with an error wrapping
// ErrNonFinite. The feature binning is built per call.
func (m SplitMode) FitTree(x [][]float64, y, h []float64, idx []int, cfg TreeConfig) (*Tree, error) {
	if err := checkFeatures(x); err != nil {
		return nil, err
	}
	if err := checkFinite("target", y); err != nil {
		return nil, err
	}
	if err := checkFinite("hessian", h); err != nil {
		return nil, err
	}
	if len(x) == 0 || len(y) != len(x) {
		return nil, fmt.Errorf("tree: %d rows, %d targets", len(x), len(y))
	}
	if h != nil && len(h) != len(x) {
		return nil, fmt.Errorf("tree: %d rows, %d hessians", len(x), len(h))
	}
	if len(idx) == 0 {
		return nil, fmt.Errorf("tree: empty index set")
	}
	cfg.setDefaults()
	return &Tree{m.growers()(x, cfg, 1)[0].fit(y, h, idx, credit{})}, nil
}

// PredictBatch evaluates the tree on every row, returning one value per
// row. out is reused when it has capacity, following the same contract
// as the nn batch predictors.
func (t *Tree) PredictBatch(rows [][]float64, out []float64) []float64 {
	if cap(out) >= len(rows) {
		out = out[:len(rows)]
	} else {
		out = make([]float64, len(rows))
	}
	for i, row := range rows {
		out[i] = t.leaf(row)
	}
	return out
}

// Flatten exposes the tree's node columns.
func (t *Tree) Flatten() FlatTree { return flatten(&t.nodes) }

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

func (b *exactBuilder) fit(y, h []float64, idx []int, c credit) nodes[float64] {
	*b = exactBuilder{x: b.x, y: y, h: h, cfg: b.cfg, cr: c}
	b.rows = append([]int(nil), idx...)
	b.oob = append([]int(nil), c.oob...)
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
