package tree

import (
	"encoding/json"
	"math"
	"testing"

	"stencilmart/internal/persist"
)

// TestGBDTStateRoundTripBatch round-trips a histogram-trained classifier
// through its JSON state and proves the rehydrated model's batched
// predictions are bitwise identical — the PR 3 differential bar extended
// to the batched entry points.
func TestGBDTStateRoundTripBatch(t *testing.T) {
	const classes = 4
	x, y := synthClassData(200, 5, classes)
	g := NewGBDT(BoostConfig{Rounds: 6, Seed: 2, Tree: TreeConfig{MaxDepth: 3}})
	if err := g.FitClassifier(x, y, classes); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(g.State())
	if err != nil {
		t.Fatal(err)
	}
	var st GBDTState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	g2, err := GBDTFromState(st, len(x[0]))
	if err != nil {
		t.Fatal(err)
	}
	want := g.PredictProbaBatch(x)
	got := g2.PredictProbaBatch(x)
	for i := range want {
		for k := range want[i] {
			if math.Float64bits(want[i][k]) != math.Float64bits(got[i][k]) {
				t.Fatalf("row %d class %d: %v != %v after round trip", i, k, want[i][k], got[i][k])
			}
		}
	}
	impW, impG := g.FeatureImportance(), g2.FeatureImportance()
	if len(impW) != len(impG) {
		t.Fatalf("importance length %d != %d after round trip", len(impW), len(impG))
	}
	for f := range impW {
		if math.Float64bits(impW[f]) != math.Float64bits(impG[f]) {
			t.Fatalf("feature %d importance %v != %v after round trip", f, impW[f], impG[f])
		}
	}
}

// TestGBRegressorStateRoundTripBatch is the regression analogue.
func TestGBRegressorStateRoundTripBatch(t *testing.T) {
	x := randMatrix(33, 200, 4)
	y := make([]float64, len(x))
	for i := range y {
		y[i] = 2*x[i][0] - x[i][1]*x[i][2]
	}
	g := NewGBRegressor(BoostConfig{Rounds: 12, Seed: 2})
	if err := g.FitRegressor(x, y); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(g.State())
	if err != nil {
		t.Fatal(err)
	}
	var st GBRegressorState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	g2, err := GBRegressorFromState(st, len(x[0]))
	if err != nil {
		t.Fatal(err)
	}
	want := g.PredictValueBatch(x)
	got := g2.PredictValueBatch(x)
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("row %d: %v != %v after round trip", i, want[i], got[i])
		}
	}
	impW, impG := g.FeatureImportance(), g2.FeatureImportance()
	for f := range impW {
		if math.Float64bits(impW[f]) != math.Float64bits(impG[f]) {
			t.Fatalf("feature %d importance %v != %v after round trip", f, impW[f], impG[f])
		}
	}
}

// stump is a three-node tree: split on feature 0 at 0.5, leaves 1 and 2.
func stump() FlatTree {
	return FlatTree{
		Feature: persist.Ints{0, -1, -1}, Threshold: persist.Floats{0.5, 0, 0}, Value: persist.Floats{0, 1, 2},
		Gain: persist.Floats{3, 0, 0}, Left: persist.Ints{1, -1, -1}, Right: persist.Ints{2, -1, -1},
	}
}

// chain is a right-leaning tree of the given depth: node 2i splits into
// leaf 2i+1 and node 2i+2, the last node being a leaf.
func chain(depth int) FlatTree {
	var ft FlatTree
	for i := 0; i < depth; i++ {
		ft.Feature = append(ft.Feature, 0, -1)
		ft.Left = append(ft.Left, 2*i+1, -1)
		ft.Right = append(ft.Right, 2*i+2, -1)
	}
	ft.Feature, ft.Left, ft.Right = append(ft.Feature, -1), append(ft.Left, -1), append(ft.Right, -1)
	ft.Threshold = make(persist.Floats, len(ft.Feature))
	ft.Value, ft.Gain = ft.Threshold, ft.Threshold
	return ft
}

// TestTreeFromFlatColumns: node columns written as JSON rebuild a tree
// that predicts from them, and every structural defect a corrupt file
// can carry is refused before any prediction runs.
func TestTreeFromFlatColumns(t *testing.T) {
	blob, err := json.Marshal(stump())
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"f":[0,-1,-1],"t":[0.5,0,0],"v":[0,1,2],"g":[3,0,0],"l":[1,-1,-1],"r":[2,-1,-1]}`; string(blob) != want {
		t.Fatalf("wire form %s, want %s", blob, want)
	}
	var ft FlatTree
	if err := json.Unmarshal(blob, &ft); err != nil {
		t.Fatal(err)
	}
	tr, err := TreeFromFlat(ft, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out := tr.PredictBatch([][]float64{{0.2}, {0.9}}, nil); out[0] != 1 || out[1] != 2 {
		t.Errorf("stump predicts %v, want [1 2]", out)
	}

	cases := map[string]func(*FlatTree){
		"empty":               func(ft *FlatTree) { *ft = FlatTree{} },
		"ragged threshold":    func(ft *FlatTree) { ft.Threshold = ft.Threshold[:2] },
		"ragged gain":         func(ft *FlatTree) { ft.Gain = nil },
		"ragged right":        func(ft *FlatTree) { ft.Right = append(ft.Right, -1) },
		"child out of bounds": func(ft *FlatTree) { ft.Left[0] = 3 },
		"negative child":      func(ft *FlatTree) { ft.Right[0] = -1 },
		"cycle":               func(ft *FlatTree) { ft.Feature[1], ft.Left[1], ft.Right[1] = 0, 0, 2 },
		"shared child":        func(ft *FlatTree) { ft.Right[0] = 1 },
		"leaf with children":  func(ft *FlatTree) { ft.Left[2] = 1 },
		"unreachable node":    func(ft *FlatTree) { ft.Feature[0], ft.Left[0], ft.Right[0] = -1, -1, -1 },
		// Narrowed to int32 this was feature 0: loaded, then misrouted.
		"feature past int32": func(ft *FlatTree) { ft.Feature[0] = 1 << 32 },
		// Loaded, then indexed past the row on the first prediction.
		"feature past the row width": func(ft *FlatTree) { ft.Feature[0] = 7 },
		"leaf marker past int32":     func(ft *FlatTree) { ft.Feature[1] = -1 << 40 },
	}
	if _, err := TreeFromFlat(chain(maxFlatDepth), 2); err != nil {
		t.Errorf("chain of depth %d refused: %v", maxFlatDepth, err)
	}
	cases["deeper than any fitted tree"] = func(ft *FlatTree) { *ft = chain(maxFlatDepth + 1) }
	for name, corrupt := range cases {
		ft := stump()
		corrupt(&ft)
		if _, err := TreeFromFlat(ft, 2); err == nil {
			t.Errorf("%s: corrupt tree rebuilt cleanly", name)
		}
	}
}
