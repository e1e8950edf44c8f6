package tree

import (
	"fmt"

	"stencilmart/internal/ml"
)

// nodes is the one form of a fitted tree: parallel columns in preorder,
// row i of every column being node i and node 0 the root. The builders
// append to it as they recurse (node, left subtree, right subtree), so
// children come after their parent; a checkpoint writes the six columns as
// they are and reads them back in place (persist.go). Prediction descends
// the ensemble's layout, which thr and value are views into, with plain
// index arithmetic. Columns are never written after the tree is built.
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

// ensemble is a boosted sum of trees in either numeric format. A row's
// score vector starts at init — the class log-priors, or the single
// regression base — and tree t adds lr × its prediction to slot
// t mod len(init): trees are stored round ascending, class ascending.
type ensemble[T float32 | float64] struct {
	trees []nodes[T]
	init  []T
	lr    T
	lay   layout[T] // built by finish; scoreInto descends it
}

// layout is an ensemble's scoring form: all nodes in one set of columns,
// tree t's node i at row roots[t]+i, node p's children side by side at
// kids[2p] and kids[2p+1]; a leaf is its own two children (feature 0), so
// a descent that reaches one early stays put. steps[g] is the deepest
// path of trees 4g..4g+3; roots is padded to a multiple of four with
// tree 0's. thr and value are the trees' own columns.
type layout[T float32 | float64] struct {
	feature, kids, roots, steps []int32
	thr, value                  []T
}

// maxFlatDepth bounds a loaded tree's paths, as MaxDepth bounds a fit's.
const maxFlatDepth = 256

// finish builds the scoring layout once the trees are final (after a fit,
// on checkpoint load) and makes each tree's thr and value views into it.
// Its one pass over each tree refuses one that cannot score rows of the
// given width: columns empty or ragged; a child that does not come after
// its parent, lies outside the tree or is shared; a node other than the
// root that nothing reaches; a leaf with children; a split feature at or
// past the width; a path deeper than maxFlatDepth.
func (e *ensemble[T]) finish(width int) error {
	total := 0
	for _, n := range e.trees {
		total += len(n.feature)
	}
	l := layout[T]{feature: make([]int32, total), kids: make([]int32, 2*total), roots: make([]int32, (len(e.trees)+3)&^3),
		steps: make([]int32, (len(e.trees)+3)/4), thr: make([]T, 0, total), value: make([]T, 0, total)}
	depth := make([]int32, total) // a node's depth + 1 once its parent is seen
	for t := range e.trees {
		n, base, c := &e.trees[t], int32(len(l.thr)), len(e.trees[t].feature)
		if c == 0 || len(n.thr) != c || len(n.value) != c || len(n.gain) != c || len(n.left) != c || len(n.right) != c {
			return fmt.Errorf("tree %d: empty or ragged node columns: %d f, %d t, %d v, %d g, %d l, %d r", t, c, len(n.thr), len(n.value), len(n.gain), len(n.left), len(n.right))
		}
		depth[base] = 1
		for i, f := range n.feature {
			p := base + int32(i)
			switch {
			case depth[p] == 0:
				return fmt.Errorf("tree %d: node %d unreachable from root", t, i)
			case int(f) >= width:
				return fmt.Errorf("tree %d: node %d has feature %d, rows have %d", t, i, f, width)
			case f < 0 && (n.left[i] != -1 || n.right[i] != -1):
				return fmt.Errorf("tree %d: leaf %d has children", t, i)
			case f < 0:
				l.kids[2*p], l.kids[2*p+1] = p, p
				l.steps[t/4] = max(l.steps[t/4], depth[p]-1)
				continue
			case depth[p] > maxFlatDepth:
				return fmt.Errorf("tree %d: children of node %d deeper than %d", t, i, maxFlatDepth)
			}
			l.feature[p] = f
			for side, ch := range [2]int32{n.left[i], n.right[i]} {
				if int(ch) <= i || int(ch) >= c || depth[base+ch] != 0 {
					return fmt.Errorf("tree %d: child %d of node %d outside (%d,%d) or shared", t, ch, i, i, c)
				}
				depth[base+ch] = depth[p] + 1
				l.kids[2*p+int32(side)] = base + ch
			}
		}
		l.roots[t] = base
		l.thr, l.value = append(l.thr, n.thr...), append(l.value, n.value...)
		n.thr, n.value = l.thr[base:len(l.thr):len(l.thr)], l.value[base:len(l.value):len(l.value)]
	}
	e.lay = l
	return nil
}

// scoreInto writes every row's score vector into out, flat row-major
// (len(rows) × len(init)), allocating nothing. A row walks four trees in
// lockstep for their group's steps, taking each child by index, then adds
// lr × each leaf value in stored order: the additions of one tree at a
// time, in that order, so the same bits. Lanes past the last tree descend
// tree 0 and add nothing.
func (e *ensemble[T]) scoreInto(rows [][]T, out []T) {
	k := len(e.init)
	for i := range rows {
		copy(out[i*k:(i+1)*k], e.init)
	}
	l := &e.lay
	feat, kids, thr, val, lr := l.feature, l.kids, l.thr, l.value, e.lr
	for g, steps := range l.steps {
		t := 4 * g
		slot := [4]int{t % k, (t + 1) % k, (t + 2) % k, (t + 3) % k}
		for i, row := range rows {
			p0, p1, p2, p3 := l.roots[t], l.roots[t+1], l.roots[t+2], l.roots[t+3]
			for s := steps; s > 0; s-- {
				p0 = kids[2*p0+goRight(row[feat[p0]], thr[p0])]
				p1 = kids[2*p1+goRight(row[feat[p1]], thr[p1])]
				p2 = kids[2*p2+goRight(row[feat[p2]], thr[p2])]
				p3 = kids[2*p3+goRight(row[feat[p3]], thr[p3])]
			}
			for j, p := range []int32{p0, p1, p2, p3}[:min(len(e.trees)-t, 4)] {
				out[i*k+slot[j]] += lr * val[p]
			}
		}
	}
}

// goRight is 0 where x descends left of a split at thr (x <= thr), else
// 1: NaN goes right.
func goRight[T float32 | float64](x, thr T) int32 {
	if x <= thr {
		return 0
	}
	return 1
}

// probaInto is scoreInto followed by a softmax over each row's scores.
func (e *ensemble[T]) probaInto(rows [][]T, out []T) {
	e.scoreInto(rows, out)
	k := len(e.init)
	for i := range rows {
		ml.Softmax(out[i*k:(i+1)*k], out[i*k:(i+1)*k])
	}
}
