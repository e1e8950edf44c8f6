package tree

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"stencilmart/internal/persist"
)

// TestGBDTStateRoundTripBatch round-trips a histogram-trained classifier
// through its checkpoint state — manifest half as JSON, trees as columns —
// and proves the rehydrated model's batched predictions are bitwise
// identical — the PR 3 differential bar extended to the batched entry
// points.
func TestGBDTStateRoundTripBatch(t *testing.T) {
	const classes = 4
	x, y := synthClassData(200, 5, classes)
	g := NewGBDT(BoostConfig{Rounds: 6, Seed: 2, Tree: TreeConfig{MaxDepth: 3}})
	if err := g.FitClassifier(x, y, classes); err != nil {
		t.Fatal(err)
	}
	var cols persist.Columns
	st := throughJSON(t, g.Snapshot(&cols))
	g2, err := GBDTFromSnapshot(st, &cols, len(x[0]))
	if err != nil || cols.End() != nil {
		t.Fatal(err, cols.End())
	}
	if stateDigest(t, g.State()) != stateDigest(t, g2.State()) {
		t.Fatal("rehydrated classifier's state differs")
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
	var cols persist.Columns
	st := throughJSON(t, g.Snapshot(&cols))
	g2, err := GBRegressorFromSnapshot(st, &cols, len(x[0]))
	if err != nil || cols.End() != nil {
		t.Fatal(err, cols.End())
	}
	if stateDigest(t, g.State()) != stateDigest(t, g2.State()) {
		t.Fatal("rehydrated regressor's state differs")
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

// TestTreeConfigModeIsFormatOnly: Mode is the manifest's "Mode":0 and
// nothing more. A config spelled with it reads and writes back byte for
// byte; a manifest naming another mode — 1 was the exact-greedy builder
// — is refused, since no fit here grows trees that way.
func TestTreeConfigModeIsFormatOnly(t *testing.T) {
	const spelled = `{"MaxDepth":7,"MinLeaf":3,"Mode":0,"MaxBins":0}`
	var cfg TreeConfig
	if err := json.Unmarshal([]byte(spelled), &cfg); err != nil {
		t.Fatal(err)
	}
	if blob, err := json.Marshal(cfg); err != nil || string(blob) != spelled {
		t.Fatalf("read back as %s (%v), want %s", blob, err, spelled)
	}
	for _, mode := range []string{"1", "-1", `"0"`, "null", "0.0"} {
		blob := strings.Replace(spelled, `"Mode":0`, `"Mode":`+mode, 1)
		if err := json.Unmarshal([]byte(blob), &cfg); err == nil || !strings.Contains(err.Error(), "split mode") {
			t.Errorf("%s: err %v, want a split mode refusal", blob, err)
		}
	}
}

// throughJSON sends an ensemble's manifest half through the encoding the
// checkpoint manifest uses.
func throughJSON(t *testing.T, st EnsembleState) EnsembleState {
	t.Helper()
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var out EnsembleState
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// stump is a three-node tree: split on feature 0 at 0.5, leaves 1 and 2.
func stump() nodes[float64] {
	return nodes[float64]{
		feature: []int32{0, -1, -1}, thr: []float64{0.5, 0, 0}, value: []float64{0, 1, 2},
		gain: []float64{3, 0, 0}, left: []int32{1, -1, -1}, right: []int32{2, -1, -1},
	}
}

// chain is a right-leaning tree of the given depth: node 2i splits into
// leaf 2i+1 and node 2i+2, the last node being a leaf.
func chain(depth int) nodes[float64] {
	var n nodes[float64]
	for i := int32(0); int(i) < depth; i++ {
		n.feature = append(n.feature, 0, -1)
		n.left = append(n.left, 2*i+1, -1)
		n.right = append(n.right, 2*i+2, -1)
	}
	n.feature, n.left, n.right = append(n.feature, -1), append(n.left, -1), append(n.right, -1)
	n.thr = make([]float64, len(n.feature))
	n.value, n.gain = n.thr, n.thr
	return n
}

// fitted is cfg with its defaults filled in, as a fit leaves it and a
// checkpoint holds it.
func fitted(cfg BoostConfig) BoostConfig {
	cfg.setDefaults()
	return cfg
}

// asRegressor reads the trees back as a one-base regressor scoring rows
// two wide: the path a checkpoint's columns take.
func asRegressor(trees ...nodes[float64]) (*GBRegressor, error) {
	var cols persist.Columns
	st := snapshot(fitted(BoostConfig{LearningRate: 1}), &ensemble[float64]{trees: trees, init: []float64{0}}, &cols)
	g, err := GBRegressorFromSnapshot(st, &cols, 2)
	if err == nil {
		err = cols.End()
	}
	return g, err
}

// TestTreeFromFlatColumns: node columns written to a column section
// rebuild a tree that predicts from them, and every structural defect a
// corrupt file can carry is refused before any prediction runs.
func TestTreeFromFlatColumns(t *testing.T) {
	st := stump()
	blob, err := json.Marshal(flatten(&st))
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"f":[0,-1,-1],"t":[0.5,0,0],"v":[0,1,2],"g":[3,0,0],"l":[1,-1,-1],"r":[2,-1,-1]}`; string(blob) != want {
		t.Fatalf("state form %s, want %s", blob, want)
	}
	g, err := asRegressor(stump(), stump())
	if err != nil {
		t.Fatal(err)
	}
	if out := g.PredictValueBatch([][]float64{{0.2, 0}, {0.9, 0}}); out[0] != 2 || out[1] != 4 {
		t.Errorf("two stumps predict %v, want [2 4]", out)
	}

	cases := map[string]func(*nodes[float64]){
		"empty":               func(n *nodes[float64]) { *n = nodes[float64]{} },
		"ragged threshold":    func(n *nodes[float64]) { n.thr = n.thr[:2] },
		"ragged gain":         func(n *nodes[float64]) { n.gain = nil },
		"ragged right":        func(n *nodes[float64]) { n.right = append(n.right, -1) },
		"child out of bounds": func(n *nodes[float64]) { n.left[0] = 3 },
		"negative child":      func(n *nodes[float64]) { n.right[0] = -1 },
		"cycle":               func(n *nodes[float64]) { n.feature[1], n.left[1], n.right[1] = 0, 0, 2 },
		"shared child":        func(n *nodes[float64]) { n.right[0] = 1 },
		"leaf with children":  func(n *nodes[float64]) { n.left[2] = 1 },
		"unreachable node":    func(n *nodes[float64]) { n.feature[0], n.left[0], n.right[0] = -1, -1, -1 },
		// Loaded, then indexed past the row on the first prediction.
		"feature past the row width": func(n *nodes[float64]) { n.feature[0] = 7 },
	}
	if _, err := asRegressor(chain(maxFlatDepth)); err != nil {
		t.Errorf("chain of depth %d refused: %v", maxFlatDepth, err)
	}
	cases["deeper than any fitted tree"] = func(n *nodes[float64]) { *n = chain(maxFlatDepth + 1) }
	for name, corrupt := range cases {
		n := stump()
		corrupt(&n)
		if _, err := asRegressor(stump(), n); err == nil {
			t.Errorf("%s: corrupt tree rebuilt cleanly", name)
		}
	}

	// What the in-memory index type cannot hold never reaches a node:
	// narrowed to int32, feature 1<<32 was feature 0 — loaded, then
	// misrouted. The column reader refuses the value itself.
	wide := func(feature, left []int64) *persist.Columns {
		var cols persist.Columns
		good := stump()
		persist.AppendInts(&cols, feature)
		cols.AppendFloats(good.thr)
		cols.AppendFloats(good.value)
		cols.AppendFloats(good.gain)
		persist.AppendInts(&cols, left)
		persist.AppendInts(&cols, good.right)
		return &cols
	}
	for name, cols := range map[string]*persist.Columns{
		"as written":             wide([]int64{0, -1, -1}, []int64{1, -1, -1}),
		"feature past int32":     wide([]int64{1 << 32, -1, -1}, []int64{1, -1, -1}),
		"leaf marker past int32": wide([]int64{0, -1 << 40, -1}, []int64{1, -1, -1}),
		"child past int32":       wide([]int64{0, -1, -1}, []int64{1 << 40, -1, -1}),
	} {
		_, err := GBRegressorFromSnapshot(EnsembleState{Config: fitted(BoostConfig{}), Init: []float64{0}, Trees: 1}, cols, 2)
		if (name == "as written") != (err == nil) || err != nil && !errors.Is(err, persist.ErrCorrupt) {
			t.Errorf("%s gave %v; want persist.ErrCorrupt unless as written", name, err)
		}
	}

	// An ensemble's shape is checked against its manifest half.
	var cols persist.Columns
	three := snapshot(fitted(BoostConfig{}), &ensemble[float64]{trees: []nodes[float64]{stump(), stump(), stump()}, init: []float64{0, 0}}, &cols)
	if _, err := GBDTFromSnapshot(three, &cols, 2); err == nil {
		t.Error("three trees for two classes rebuilt a classifier")
	}
	if _, err := GBRegressorFromSnapshot(three, &cols, 2); err == nil {
		t.Error("two base values rebuilt a regressor")
	}
	three.Trees = 4
	if _, err := GBDTFromSnapshot(three, persist.ColumnsOf(cols.Bytes()), 2); !errors.Is(err, persist.ErrCorrupt) {
		t.Errorf("a tree count past the columns gave %v, want persist.ErrCorrupt", err)
	}
}
