package tree

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"stencilmart/internal/persist"
)

// This file holds the ensembles' scoring to the per-row descent it
// replaced: leaf and addTo below are the product's scoring loop from
// before the lockstep layout, kept verbatim as the oracle.

// leaf descends one row from the root to its leaf and returns the leaf
// value: a feature `<=` its threshold goes left.
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

// addTo adds lr × the tree's prediction for rows[i] to out[i*stride].
func (n *nodes[T]) addTo(rows [][]T, out []T, stride int, lr T) {
	for i, row := range rows {
		out[i*stride] += lr * n.leaf(row)
	}
}

// oracleScore is scoreInto as it was: every row through one tree, tree
// by tree in stored order, on the trees' own node columns.
func oracleScore[T float32 | float64](e *ensemble[T], rows [][]T) []T {
	k := len(e.init)
	out := make([]T, len(rows)*k)
	for i := range rows {
		copy(out[i*k:(i+1)*k], e.init)
	}
	for t := range e.trees {
		e.trees[t].addTo(rows, out[t%k:], k, e.lr)
	}
	return out
}

// oracleF32 rounds an ensemble to float32 tree by tree, without its
// layout: what quantize must agree with.
func oracleF32(e *ensemble[float64]) *ensemble[float32] {
	q := &ensemble[float32]{init: toF32(e.init), lr: float32(e.lr)}
	for _, t := range e.trees {
		q.trees = append(q.trees, nodes[float32]{feature: t.feature, left: t.left, right: t.right, thr: toF32(t.thr), value: toF32(t.value)})
	}
	return q
}

// scoresAgree fails t unless the layout's scores for rows are the
// oracle's, bit for bit.
func scoresAgree[T float32 | float64](t *testing.T, name string, e, oracle *ensemble[T], rows [][]T) {
	t.Helper()
	got := make([]T, len(rows)*len(e.init))
	e.scoreInto(rows, got)
	want := oracleScore(oracle, rows)
	for i := range want {
		if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
			t.Fatalf("%s: score %d of %d rows is %v, the per-row descent gives %v", name, i, len(rows), got[i], want[i])
		}
	}
}

// leafTree is a single-leaf tree of value v.
func leafTree(v float64) nodes[float64] {
	return nodes[float64]{feature: []int32{-1}, thr: []float64{0}, value: []float64{v}, gain: []float64{0}, left: []int32{-1}, right: []int32{-1}}
}

// TestDescentMatchesOracle: the lockstep descent scores every row
// exactly like the per-row oracle — for batches of 1–5 and 33 rows,
// regressors of 1, 3, 4, 5 and 41 trees (every remainder of a group of
// four), single-leaf trees alone and among deep ones, 3- and 5-class
// classifiers whose class slots wrap within and across groups, rows
// with NaN in a split feature, and the float32 form of each.
func TestDescentMatchesOracle(t *testing.T) {
	bins := []int{3, 0, 9, 2, 0, 5}
	x, yv, _ := binnedData(51, 400, bins, 2)
	ensembles := map[string]*ensemble[float64]{}
	for _, rounds := range []int{1, 3, 4, 5, 41} {
		g := NewGBRegressor(BoostConfig{Rounds: rounds, Seed: 3, Tree: TreeConfig{MaxDepth: 5, MinLeaf: 2}})
		if err := g.FitRegressor(x, yv); err != nil {
			t.Fatal(err)
		}
		ensembles[fmt.Sprintf("gbreg/%d trees", rounds)] = &g.ens
	}
	for _, classes := range []int{3, 5} {
		cx, _, yc := binnedData(52, 400, bins, classes)
		g := NewGBDT(BoostConfig{Rounds: 3, Seed: 3, Tree: TreeConfig{MaxDepth: 4}})
		if err := g.FitClassifier(cx, yc, classes); err != nil {
			t.Fatal(err)
		}
		ensembles[fmt.Sprintf("gbdt/%d classes", classes)] = &g.ens
	}
	deep := ensembles["gbreg/5 trees"].trees
	for name, trees := range map[string][]nodes[float64]{
		"leaves only":       {leafTree(0.5), leafTree(-1), leafTree(2)},
		"leaves among deep": {leafTree(0.5), deep[0], leafTree(-1), leafTree(2), deep[1], deep[2]},
		"stumps":            {stump(), stump(), stump(), stump(), stump()},
	} {
		e := &ensemble[float64]{init: []float64{0.125}, lr: 0.3}
		for _, tr := range trees {
			e.add(tr, len(trees))
		}
		if err := e.finish(len(bins)); err != nil {
			t.Fatal(err)
		}
		ensembles[name] = e
	}

	// NaN goes right (to feature 0 = 1's leaves, not 0's), in the oracle
	// as in the layout.
	stumps := ensembles["stumps"]
	nan := oracleScore(stumps, [][]float64{{math.NaN(), 0, 0, 0, 0, 0}, {1, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0}})
	if nan[0] != nan[1] || nan[0] == nan[2] {
		t.Fatalf("five stumps score a NaN row %v, right of the split %v, left of it %v", nan[0], nan[1], nan[2])
	}
	// Batches start at varied offsets; each comes again with NaN in the
	// first split feature of tree 0 and, at a second row, in feature 1.
	var batches [][][]float64
	for i, size := range []int{1, 2, 3, 4, 5, 33} {
		b := x[7*i : 7*i+size]
		holed := make([][]float64, size)
		for r := range b {
			holed[r] = append([]float64(nil), b[r]...)
		}
		holed[0][ensembles["gbreg/41 trees"].trees[0].feature[0]] = math.NaN()
		holed[size/2][1] = math.NaN()
		batches = append(batches, b, holed)
	}
	for name, e := range ensembles {
		q := quantize(e)
		for _, rows := range batches {
			scoresAgree(t, name, e, e, rows)
			scoresAgree(t, name+"/f32", &q, oracleF32(e), rowsToF32(rows))
		}
	}
}

// FuzzEnsembleColumns feeds arbitrary node columns through the checkpoint
// loader: copies+1 (up to 6) copies of one tree, rows width+1 (up to 8)
// wide. Index columns are little-endian int16s, float columns one int8 a
// value in quarters, so ragged, cyclic, shared and out-of-range columns
// are all a few bytes away from a valid tree. The loader must never
// panic or hang, and any ensemble it accepts must score a batch — one row
// with NaN in every feature among them — exactly like the per-row
// descent, in both numeric formats. testdata/fuzz/FuzzEnsembleColumns
// holds a stump, chains of depth maxFlatDepth and one more, and each
// TestTreeFromFlatColumns corruption of the stump.
func FuzzEnsembleColumns(f *testing.F) {
	f.Fuzz(func(t *testing.T, width, copies uint8, feature, left, right, thr, value, gain []byte) {
		w := int(width%8) + 1
		trees := make([]nodes[float64], int(copies%6)+1)
		for i := range trees {
			trees[i] = nodes[float64]{feature: int16s(feature), left: int16s(left), right: int16s(right),
				thr: quarters(thr), value: quarters(value), gain: quarters(gain)}
		}
		var cols persist.Columns
		st := snapshot(fitted(BoostConfig{LearningRate: 0.5}), &ensemble[float64]{trees: trees, init: []float64{0.25}}, &cols)
		g, err := GBRegressorFromSnapshot(st, &cols, w)
		if err != nil {
			return
		}
		rows := make([][]float64, 5)
		for i := range rows {
			rows[i] = make([]float64, w)
			for j := range rows[i] {
				rows[i][j] = float64((i*5+j*3)%11-5) / 4
				if i == 4 {
					rows[i][j] = math.NaN()
				}
			}
		}
		q := quantize(&g.ens)
		scoresAgree(t, "f64", &g.ens, &g.ens, rows)
		scoresAgree(t, "f32", &q, oracleF32(&g.ens), rowsToF32(rows))
	})
}

// int16s decodes little-endian int16s; an odd last byte is dropped.
func int16s(b []byte) []int32 {
	out := make([]int32, len(b)/2)
	for i := range out {
		out[i] = int32(int16(binary.LittleEndian.Uint16(b[2*i:])))
	}
	return out
}

// quarters decodes one int8 a value, in quarters.
func quarters(b []byte) []float64 {
	out := make([]float64, len(b))
	for i, v := range b {
		out[i] = float64(int8(v)) / 4
	}
	return out
}
