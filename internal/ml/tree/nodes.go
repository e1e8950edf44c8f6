package tree

import "stencilmart/internal/ml"

// nodes is the one layout of a fitted tree: parallel columns in
// preorder, row i of every column being node i and node 0 the root. The
// builders append to it as they recurse (node, left subtree, right
// subtree), prediction descends it with plain index arithmetic, Compile
// rounds thr and value to float32 and shares the index columns, and a
// checkpoint writes the six columns as they are and reads them back in
// place (persist.go). Columns are never written after the tree is built.
type nodes[T float32 | float64] struct {
	feature     []int32 // split feature; < 0 for leaves
	left, right []int32 // child rows; -1 for leaves
	thr         []T     // split threshold (0 at leaves)
	value       []T     // leaf prediction (0 at internal nodes)
	// gain is the split gain at internal nodes, carried by the
	// checkpoint format; quantized trees drop it.
	gain []float64
}

// push appends one node and returns its row. A split's children are
// filled in by its builder once both subtrees have been appended.
func (n *nodes[T]) push(feature int, thr, value T, gain float64) int32 {
	n.feature = append(n.feature, int32(feature))
	n.left = append(n.left, -1)
	n.right = append(n.right, -1)
	n.thr = append(n.thr, thr)
	n.value = append(n.value, value)
	n.gain = append(n.gain, gain)
	return int32(len(n.feature) - 1)
}

// leaf descends one row from the root to its leaf and returns the leaf
// value: a feature `<=` its threshold goes left. It is the only descent
// (a fit never descends: its builder routes rows as it splits them, see
// credit); float32 trees differ from their float64 source only where a
// feature lands within half a float32 ULP of a threshold (the tie band
// the serving-lane differential suite bounds).
func (n *nodes[T]) leaf(row []T) T {
	p := int32(0)
	for {
		f := n.feature[p]
		if f < 0 {
			return n.value[p]
		}
		if row[f] <= n.thr[p] {
			p = n.left[p]
		} else {
			p = n.right[p]
		}
	}
}

// addTo adds lr × the tree's prediction for rows[i] to out[i*stride] —
// scoreInto's step, the same expression a fit's credit applies. Running
// every row through one tree before the next keeps its columns
// cache-resident.
func (n *nodes[T]) addTo(rows [][]T, out []T, stride int, lr T) {
	for i, row := range rows {
		out[i*stride] += lr * n.leaf(row)
	}
}

// ensemble is a boosted sum of trees in either numeric format. A row's
// score vector starts at init — the class log-priors, or the single
// regression base — and tree t adds lr × its prediction to slot
// t mod len(init): trees are stored round ascending, class ascending.
type ensemble[T float32 | float64] struct {
	trees []nodes[T]
	init  []T
	lr    T
}

// scoreInto writes every row's score vector into out, flat row-major
// (len(rows) × len(init)), accumulating tree by tree in stored order —
// the one schedule both formats evaluate. It allocates nothing.
func (e *ensemble[T]) scoreInto(rows [][]T, out []T) {
	if len(rows) == 0 {
		return
	}
	k := len(e.init)
	for i := range rows {
		copy(out[i*k:(i+1)*k], e.init)
	}
	for t := range e.trees {
		e.trees[t].addTo(rows, out[t%k:], k, e.lr)
	}
}

// probaInto is scoreInto followed by a softmax over each row's scores.
func (e *ensemble[T]) probaInto(rows [][]T, out []T) {
	e.scoreInto(rows, out)
	k := len(e.init)
	for i := range rows {
		ml.Softmax(out[i*k:(i+1)*k], out[i*k:(i+1)*k])
	}
}
