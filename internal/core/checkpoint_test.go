package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"stencilmart/internal/ml/tree"
	"stencilmart/internal/persist"
	"stencilmart/internal/profile"
	"stencilmart/internal/stencil"
)

// ckptFramework builds one smoke-sized framework shared by the
// checkpoint tests; TrainAll re-runs per mechanism pair on top of it.
var (
	ckptOnce sync.Once
	ckptInst *Framework
	ckptErr  error
)

func ckptFramework(t testing.TB) *Framework {
	t.Helper()
	ckptOnce.Do(func() {
		ckptInst, ckptErr = Build(context.Background(), SmokeConfig())
	})
	if ckptErr != nil {
		t.Fatal(ckptErr)
	}
	return ckptInst
}

// ckptProbes are unseen stencils (not generated corpus members) the
// differential tests predict for.
func ckptProbes() []stencil.Stencil {
	return []stencil.Stencil{
		stencil.Star(2, 2),
		stencil.Box(2, 1),
		stencil.Star(3, 3),
		stencil.Box(3, 1),
	}
}

func ckptSameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func ckptSameBitsSlice(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !ckptSameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// reloaded sends a trained framework through Save → LoadFramework.
func reloaded(t testing.TB, fw *Framework) *Framework {
	t.Helper()
	var buf bytes.Buffer
	if err := fw.Save(&buf); err != nil {
		t.Fatal(err)
	}
	lf, err := LoadFramework(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return lf
}

// sameDatasetBits fails unless b holds a's stencils, archs, profiles and
// instances with every time bit for bit — crashed results' NaNs included.
func sameDatasetBits(t *testing.T, a, b *profile.Dataset) {
	t.Helper()
	if !reflect.DeepEqual(a.Stencils, b.Stencils) || !reflect.DeepEqual(a.Archs, b.Archs) {
		t.Fatal("stencils or archs drift after reload")
	}
	if len(a.Profiles) != len(b.Profiles) || len(a.Instances) != len(b.Instances) {
		t.Fatalf("dataset shape drift: %d/%d profile rows, %d/%d instances", len(a.Profiles), len(b.Profiles), len(a.Instances), len(b.Instances))
	}
	crashed := 0
	for ai := range a.Profiles {
		if len(a.Profiles[ai]) != len(b.Profiles[ai]) {
			t.Fatalf("arch %d: %d/%d profiles", ai, len(a.Profiles[ai]), len(b.Profiles[ai]))
		}
		for si, pa := range a.Profiles[ai] {
			pb := b.Profiles[ai][si]
			if pa.StencilIdx != pb.StencilIdx || pa.Arch != pb.Arch || pa.BestOC != pb.BestOC || !ckptSameBits(pa.BestTime, pb.BestTime) || len(pa.Results) != len(pb.Results) {
				t.Fatalf("profile %d/%d drift:\n%+v\n%+v", ai, si, pa, pb)
			}
			for ci, ra := range pa.Results {
				rb := pb.Results[ci]
				if ra.OC != rb.OC || ra.Crashed != rb.Crashed || ra.Params != rb.Params || !ckptSameBits(ra.Time, rb.Time) {
					t.Fatalf("profile %d/%d result %d drift: %+v vs %+v", ai, si, ci, ra, rb)
				}
				if ra.Crashed && math.IsNaN(ra.Time) {
					crashed++
				}
			}
		}
	}
	if crashed == 0 {
		t.Error("smoke dataset has no crashed (NaN) result; the NaN round trip went unchecked")
	}
	for i, ia := range a.Instances {
		ib := b.Instances[i]
		if ia.StencilIdx != ib.StencilIdx || ia.OC != ib.OC || ia.Params != ib.Params || ia.Arch != ib.Arch || !ckptSameBits(ia.Time, ib.Time) {
			t.Fatalf("instance %d drift: %+v vs %+v", i, ia, ib)
		}
	}
}

// sameTreeBits compares two flattened trees column by column.
func sameTreeBits(t *testing.T, where string, a, b tree.FlatTree) {
	t.Helper()
	if !reflect.DeepEqual(a.Feature, b.Feature) || !reflect.DeepEqual(a.Left, b.Left) || !reflect.DeepEqual(a.Right, b.Right) ||
		!ckptSameBitsSlice(a.Threshold, b.Threshold) || !ckptSameBitsSlice(a.Value, b.Value) || !ckptSameBitsSlice(a.Gain, b.Gain) {
		t.Fatalf("%s: tree nodes drift after reload", where)
	}
}

// sameModelBits compares every node field of every tree in a fitted
// ensemble with its reloaded twin; network models are covered by the
// serving comparison (their weight blocks load verbatim or not at all).
func sameModelBits(t *testing.T, where string, a, b any) {
	t.Helper()
	switch ma := a.(type) {
	case *tree.GBDT:
		sa, sb := ma.State(), b.(*tree.GBDT).State()
		if sa.Classes != sb.Classes || !ckptSameBitsSlice(sa.Prior, sb.Prior) || sa.Config != sb.Config || len(sa.Trees) != len(sb.Trees) {
			t.Fatalf("%s: GBDT state drift", where)
		}
		for r := range sa.Trees {
			for c := range sa.Trees[r] {
				sameTreeBits(t, fmt.Sprintf("%s round %d class %d", where, r, c), sa.Trees[r][c], sb.Trees[r][c])
			}
		}
	case *tree.GBRegressor:
		sa, sb := ma.State(), b.(*tree.GBRegressor).State()
		if !ckptSameBits(sa.Base, sb.Base) || sa.Config != sb.Config || len(sa.Trees) != len(sb.Trees) {
			t.Fatalf("%s: GBRegressor state drift", where)
		}
		for i := range sa.Trees {
			sameTreeBits(t, fmt.Sprintf("%s tree %d", where, i), sa.Trees[i], sb.Trees[i])
		}
	}
}

// TestSaveLoadBitwiseIdentical is the differential round-trip check the
// checkpoint format promises: for every classifier and regressor
// mechanism, a saved-then-loaded framework holds the same dataset and
// tree nodes bit for bit and reproduces the full serving path — class,
// probabilities, tuned parameters, and cross-GPU times — bitwise.
func TestSaveLoadBitwiseIdentical(t *testing.T) {
	fw := ckptFramework(t)
	pairs := []struct {
		ck ClassifierKind
		rk RegressorKind
	}{
		{ClassGBDT, RegGB},
		{ClassConvNet, RegMLP},
		{ClassFcNet, RegConvMLP},
	}
	for _, pair := range pairs {
		t.Run(pair.ck.String()+"_"+pair.rk.String(), func(t *testing.T) {
			if err := fw.TrainAll(context.Background(), pair.ck, pair.rk); err != nil {
				t.Fatal(err)
			}
			lf := reloaded(t, fw)
			sameDatasetBits(t, fw.Dataset, lf.Dataset)
			for arch, byDims := range fw.Trained.Classifiers {
				for dims, cls := range byDims {
					sameModelBits(t, fmt.Sprintf("%s/%d-D classifier", arch, dims), cls, lf.Trained.Classifiers[arch][dims])
				}
			}
			for dims, reg := range fw.Trained.Regressors {
				sameModelBits(t, fmt.Sprintf("%d-D regressor", dims), reg.model, lf.Trained.Regressors[dims].model)
			}
			for _, s := range ckptProbes() {
				for _, a := range fw.Dataset.Archs {
					p1, err := fw.ServePredict(a.Name, s)
					if err != nil {
						t.Fatalf("%s on %s (original): %v", s.Name, a.Name, err)
					}
					p2, err := lf.ServePredict(a.Name, s)
					if err != nil {
						t.Fatalf("%s on %s (loaded): %v", s.Name, a.Name, err)
					}
					if p1.Class != p2.Class || p1.OC != p2.OC || p1.Params != p2.Params {
						t.Fatalf("%s on %s: decision drift after reload:\n%+v\n%+v", s.Name, a.Name, p1, p2)
					}
					if !ckptSameBitsSlice(p1.Proba, p2.Proba) {
						t.Fatalf("%s on %s: proba drift %v vs %v", s.Name, a.Name, p1.Proba, p2.Proba)
					}
					if !ckptSameBits(p1.TunedSeconds, p2.TunedSeconds) {
						t.Fatalf("%s on %s: tuned time drift %g vs %g", s.Name, a.Name, p1.TunedSeconds, p2.TunedSeconds)
					}
					if !ckptSameBitsSlice(p1.PredictedSeconds, p2.PredictedSeconds) {
						t.Fatalf("%s on %s: predicted times drift %v vs %v", s.Name, a.Name, p1.PredictedSeconds, p2.PredictedSeconds)
					}
					if p1.Advice != p2.Advice {
						t.Fatalf("%s on %s: advice drift %+v vs %+v", s.Name, a.Name, p1.Advice, p2.Advice)
					}
				}
			}
		})
	}
}

// column is one decoded column of a checkpoint's binary section.
type column struct {
	float  bool
	ints   []int64
	floats []float64
}

// ckptParts is a checkpoint taken apart for tampering: the manifest and
// the column section, column by column.
type ckptParts struct {
	m    checkpointManifest
	cols []column
}

// Where Save puts what: the dataset's eleven columns, then six a tree for
// every classifier in manifest order, then the regressors' (DESIGN §7).
const (
	colResultOC = iota
	colResultCrashed
	colResultTime
	colResultParams
	colBestOC
	colBestTime
	colInstStencil
	colInstOC
	colInstArch
	colInstTime
	colInstParams
	colModels
)

// A tree's six columns, in the order they are written.
const (
	nodeFeature = iota
	nodeThr
	nodeValue
	nodeGain
	nodeLeft
	nodeRight
)

// regressorCols returns the index of the first regressor's first column.
func (p *ckptParts) regressorCols() int {
	at := colModels
	for _, sc := range p.m.Classifiers {
		at += 6 * sc.Model.Ensemble.Trees
	}
	return at
}

// splitCheckpoint reads a saved checkpoint into its parts.
func splitCheckpoint(t testing.TB, saved []byte) *ckptParts {
	t.Helper()
	var p ckptParts
	cols, err := persist.Read(bytes.NewReader(saved), CheckpointKind, CheckpointVersion, &p.m)
	if err != nil {
		t.Fatal(err)
	}
	for len(cols.Bytes()) > 0 {
		if cols.Bytes()[0] == 'f' {
			p.cols = append(p.cols, column{float: true, floats: cols.ReadFloats()})
		} else {
			p.cols = append(p.cols, column{ints: persist.ReadInts[int64](cols)})
		}
		if err := cols.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return &p
}

// encodeColumns spells a column section by hand, from the format's
// description and not with the writer under test — which also lets a
// test write what the writer refuses to (a NaN).
func encodeColumns(cols []column) []byte {
	var b []byte
	for _, c := range cols {
		if c.float {
			b = binary.AppendUvarint(append(b, 'f'), uint64(len(c.floats)))
			for _, v := range c.floats {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
			continue
		}
		b = binary.AppendUvarint(append(b, 'i'), uint64(len(c.ints)))
		for _, v := range c.ints {
			b = binary.AppendVarint(b, v) // zig-zag, as the format's integers are
		}
	}
	return b
}

// frame wraps a manifest and a column section in a valid envelope (fresh
// checksum), so a failure under test is the loader's validation — not
// the checksum.
func (p *ckptParts) frame(t testing.TB) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := persist.Write(&out, CheckpointKind, CheckpointVersion, p.m, persist.ColumnsOf(encodeColumns(p.cols))); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// tamperCheckpoint saves fw, applies mutate to its parts and frames them
// again.
func tamperCheckpoint(t testing.TB, fw *Framework, mutate func(*ckptParts)) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fw.Save(&buf); err != nil {
		t.Fatal(err)
	}
	p := splitCheckpoint(t, buf.Bytes())
	mutate(p)
	return p.frame(t)
}

// setSplitFeature points the first internal node of the tree whose
// columns start at cols[at] at feature f.
func setSplitFeature(t testing.TB, p *ckptParts, at int, f int64) {
	t.Helper()
	feature := p.cols[at+nodeFeature].ints
	for i := range feature {
		if feature[i] >= 0 {
			feature[i] = f
			return
		}
	}
	t.Fatal("no internal node to corrupt")
}

func TestLoadRejectsTamperedCheckpoints(t *testing.T) {
	fw := ckptFramework(t)
	if err := fw.TrainAll(context.Background(), ClassGBDT, RegGB); err != nil {
		t.Fatal(err)
	}
	// An untouched split-and-frame round trip loads: the cases below fail
	// for what they change, not for how the parts were put back together.
	if _, err := LoadFramework(bytes.NewReader(tamperCheckpoint(t, fw, func(*ckptParts) {}))); err != nil {
		t.Fatalf("checkpoint re-framed from its parts: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*ckptParts)
		want    string
		corrupt bool // the error must also be persist.ErrCorrupt
	}{
		{
			name:   "schema width drift",
			mutate: func(p *ckptParts) { p.m.Schema[0].ClassWidth++ },
			want:   "feature schema mismatch",
		},
		{
			name:   "gbdt round missing a class tree",
			mutate: func(p *ckptParts) { p.m.Classifiers[0].Model.Ensemble.Trees-- },
			want:   "trees",
		},
		{
			name: "gbdt tree child out of bounds",
			mutate: func(p *ckptParts) {
				left := p.cols[colModels+nodeLeft].ints
				for i := range left {
					if left[i] >= 0 {
						left[i] = int64(len(left) + 7)
						return
					}
				}
				t.Fatal("no internal node to corrupt")
			},
			want: "outside",
		},
		{
			// Truncated to feature 0 by an int32 index, this misrouted rows.
			name:    "gbdt tree feature past the int32 range",
			mutate:  func(p *ckptParts) { setSplitFeature(t, p, colModels, 1<<32) },
			want:    "is 4294967296, outside the column's int32",
			corrupt: true,
		},
		{
			// Loaded cleanly, this indexed past the row on first predict.
			name:   "gbreg tree feature past the schema's row width",
			mutate: func(p *ckptParts) { setSplitFeature(t, p, p.regressorCols(), int64(p.m.Schema[0].RegWidth)) },
			want:   "rows have",
		},
		{
			name:   "classifier for dims the schema does not cover",
			mutate: func(p *ckptParts) { p.m.Classifiers[0].Dims = 9 },
			want:   "unknown dims 9",
		},
		{
			name:   "classifier kind/state disagreement",
			mutate: func(p *ckptParts) { p.m.Classifiers[0].Model.Kind = "nn" },
			want:   "want gbdt",
		},
		{
			name:   "unknown classifier mechanism",
			mutate: func(p *ckptParts) { p.m.ClassifierKind = "XGBoost" },
			want:   "unknown classifier",
		},
		{
			name:   "missing regressor",
			mutate: func(p *ckptParts) { p.m.Regressors = p.m.Regressors[:1] },
			want:   "missing",
		},
		{
			name:   "duplicate classifier cell",
			mutate: func(p *ckptParts) { p.m.Classifiers = append(p.m.Classifiers, p.m.Classifiers[0]) },
			want:   "duplicate",
		},
		{
			name: "gbdt tree columns ragged",
			mutate: func(p *ckptParts) {
				gain := &p.cols[colModels+nodeGain]
				gain.floats = gain.floats[:len(gain.floats)-1]
			},
			want: "ragged",
		},
		{
			name:   "dataset corrupted",
			mutate: func(p *ckptParts) { p.m.Dataset = profile.Corpus{Archs: []string{"NoSuchGPU"}} },
			want:   "dataset",
		},
		{
			name:   "dataset instance columns ragged",
			mutate: func(p *ckptParts) { p.cols[colInstTime].floats = p.cols[colInstTime].floats[1:] },
			want:   "dataset: profile: ragged instance columns",
		},
		{
			name: "dataset params not ten per instance",
			mutate: func(p *ckptParts) {
				p.cols[colInstParams].ints = p.cols[colInstParams].ints[:len(p.cols[colInstParams].ints)-3]
			},
			want: "dataset: profile: ragged instance columns",
		},
		{
			name:   "dataset arch index out of range",
			mutate: func(p *ckptParts) { p.cols[colInstArch].ints[5] = int64(len(p.m.Dataset.Archs)) },
			want:   "dataset: profile: instance 5 has arch index",
		},
		{
			name:   "dataset result columns ragged",
			mutate: func(p *ckptParts) { p.cols[colResultTime].floats = p.cols[colResultTime].floats[1:] },
			want:   "dataset: profile: ragged result columns",
		},
		{
			name:   "dataset result params not ten per result",
			mutate: func(p *ckptParts) { p.cols[colResultParams].ints = p.cols[colResultParams].ints[4:] },
			want:   "dataset: profile: ragged result columns",
		},
		{
			name:   "dataset crashed flag out of range",
			mutate: func(p *ckptParts) { p.cols[colResultCrashed].ints[3] = 2 },
			want:   "crashed flag 2",
		},
		{
			name:    "dataset OC past a byte",
			mutate:  func(p *ckptParts) { p.cols[colResultOC].ints[0] = 256 },
			want:    "outside the column's opt.Opt",
			corrupt: true,
		},
		{
			// Loaded cleanly, and Labels() returned the edited class.
			name: "dataset label contradicts its results",
			mutate: func(p *ckptParts) {
				for ci, crashed := range p.cols[colResultCrashed].ints[:30] {
					if oc := p.cols[colResultOC].ints[ci]; crashed == 0 && oc != p.cols[colBestOC].ints[0] {
						p.cols[colBestOC].ints[0], p.cols[colBestTime].floats[0] = oc, 123
						return
					}
				}
				t.Fatal("no second OC to relabel to")
			},
			want: "its results say",
		},
		{
			name:    "NaN in an instance time",
			mutate:  func(p *ckptParts) { p.cols[colInstTime].floats[2] = math.NaN() },
			want:    "not finite",
			corrupt: true,
		},
		{
			name:    "infinity in a tree threshold",
			mutate:  func(p *ckptParts) { p.cols[p.regressorCols()+nodeThr].floats[0] = math.Inf(1) },
			want:    "not finite",
			corrupt: true,
		},
		{
			name: "float column where an int column is due",
			mutate: func(p *ckptParts) {
				p.cols[colModels+nodeLeft] = column{float: true, floats: make([]float64, len(p.cols[colModels+nodeLeft].ints))}
			},
			want:    `want a 'i' column`,
			corrupt: true,
		},
		{
			name:    "column after the last model",
			mutate:  func(p *ckptParts) { p.cols = append(p.cols, column{}) },
			want:    "follow the last column",
			corrupt: true,
		},
		{
			name:    "last tree's columns missing",
			mutate:  func(p *ckptParts) { p.cols = p.cols[:len(p.cols)-6] },
			want:    "want a 'i' column",
			corrupt: true,
		},
		{
			// Loaded cleanly; the first prediction indexed past the scaler.
			name:   "tree regressor carries a one-column input scaler",
			mutate: func(p *ckptParts) { p.m.Regressors[0].XScale = []float64{7} },
			want:   "the mechanism does not scale",
		},
		{
			// Loaded cleanly and answered 0.0252 s for the model's 0.0415 s.
			name: "tree regressor carries a full-width input scaler",
			mutate: func(p *ckptParts) {
				p.m.Regressors[0].XScale = make([]float64, p.m.Schema[0].RegWidth)
				for j := range p.m.Regressors[0].XScale {
					p.m.Regressors[0].XScale[j] = 7
				}
			},
			want: "the mechanism does not scale",
		},
		{
			name:   "tree regressor carries a target scaler",
			mutate: func(p *ckptParts) { p.m.Regressors[1].YMean, p.m.Regressors[1].YStd = -3, 2 },
			want:   "the mechanism does not scale",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := tamperCheckpoint(t, fw, tc.mutate)
			_, err := LoadFramework(bytes.NewReader(raw))
			if err == nil {
				t.Fatal("tampered checkpoint loaded cleanly")
			}
			if !strings.Contains(err.Error(), tc.want) || errors.Is(err, persist.ErrCorrupt) != tc.corrupt {
				t.Fatalf("error %q does not mention %q, or ErrCorrupt is not %v", err, tc.want, tc.corrupt)
			}
		})
	}
}

// TestLoadRejectsWrongNNShapes corrupts a network checkpoint's weight
// blocks: a checkpoint whose layer shapes disagree with the architecture
// the config declares must fail at load, not mispredict. A network's
// blocks are the first columns after the dataset's, one each.
func TestLoadRejectsWrongNNShapes(t *testing.T) {
	fw := ckptFramework(t)
	if err := fw.TrainAll(context.Background(), ClassConvNet, RegMLP); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*ckptParts)
	}{
		{
			name: "classifier block truncated",
			mutate: func(p *ckptParts) {
				block := &p.cols[colModels]
				block.floats = block.floats[:len(block.floats)-1]
			},
		},
		{
			name:   "classifier block count wrong",
			mutate: func(p *ckptParts) { p.cols = append(p.cols[:colModels+1], p.cols[colModels+2:]...) },
		},
		{
			name: "regressor block padded",
			mutate: func(p *ckptParts) {
				last := &p.cols[len(p.cols)-1]
				last.floats = append(last.floats, 0.5)
			},
		},
		{
			name:   "regressor scaler width wrong",
			mutate: func(p *ckptParts) { p.m.Regressors[0].XScale = p.m.Regressors[0].XScale[:3] },
		},
		{
			// A zero divides every row it scales into infinities.
			name:   "regressor scaler entry zero",
			mutate: func(p *ckptParts) { p.m.Regressors[0].XScale[2] = 0 },
		},
		{
			name:   "regressor scaler entry negative",
			mutate: func(p *ckptParts) { p.m.Regressors[1].XScale[0] = -1 },
		},
		{
			name:   "regressor target deviation zero",
			mutate: func(p *ckptParts) { p.m.Regressors[0].YStd = 0 },
		},
		{
			name:   "weight is NaN",
			mutate: func(p *ckptParts) { p.cols[colModels].floats[0] = math.NaN() },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := tamperCheckpoint(t, fw, tc.mutate)
			if _, err := LoadFramework(bytes.NewReader(raw)); err == nil {
				t.Fatal("shape-corrupted checkpoint loaded cleanly")
			}
		})
	}
}

func TestTruncatedCheckpointFails(t *testing.T) {
	fw := ckptFramework(t)
	if err := fw.TrainAll(context.Background(), ClassGBDT, RegGB); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fw.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{0, len(raw) / 3, len(raw) - 10} {
		if _, err := LoadFramework(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(raw))
		}
	}
}

func TestServeRequiresTraining(t *testing.T) {
	fw := ckptFramework(t)
	saved := fw.Trained
	fw.Trained = nil
	defer func() { fw.Trained = saved }()
	if _, _, err := fw.PredictClassTrained("V100", stencil.Star(2, 1)); err == nil {
		t.Error("PredictClassTrained worked without training")
	}
	if _, err := fw.ServePredict("V100", stencil.Star(2, 1)); err == nil {
		t.Error("ServePredict worked without training")
	}
	if err := fw.Save(&bytes.Buffer{}); err == nil {
		t.Error("Save worked without training")
	}
}

// TestSaveLoadBatchedTreePredictions extends the round-trip differential
// to the tree ensembles' batched entry points: after Save → LoadFramework
// the GBDT classifier's PredictProbaBatch and the GBRegressor-backed
// batch regression must be bitwise identical to the original models' —
// and to their own batches of one.
func TestSaveLoadBatchedTreePredictions(t *testing.T) {
	fw := ckptFramework(t)
	if err := fw.TrainAll(context.Background(), ClassGBDT, RegGB); err != nil {
		t.Fatal(err)
	}
	lf := reloaded(t, fw)

	for arch, byDims := range fw.Trained.Classifiers {
		for dims, cls := range byDims {
			lcls := lf.Trained.Classifiers[arch][dims]
			var rows [][]float64
			for _, s := range ckptProbes() {
				if s.Dims == dims {
					rows = append(rows, classEncode(fw.Trained.ClassifierKind, s))
				}
			}
			if len(rows) == 0 {
				continue
			}
			orig := cls.PredictProbaBatch(rows)
			loaded := lcls.PredictProbaBatch(rows)
			for i := range rows {
				if !ckptSameBitsSlice(orig[i], loaded[i]) {
					t.Fatalf("%s/%dD row %d: batch proba drift after reload: %v vs %v", arch, dims, i, orig[i], loaded[i])
				}
				if !ckptSameBitsSlice(orig[i], cls.PredictProbaBatch(rows[i : i+1])[0]) {
					t.Fatalf("%s/%dD row %d: batch proba differs from a batch of one", arch, dims, i)
				}
			}
		}
	}

	for dims, reg := range fw.Trained.Regressors {
		ins := fw.dimsInstances(dims)
		if len(ins) > 32 {
			ins = ins[:32]
		}
		orig, err := reg.PredictSecondsBatch(ins)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := lf.Trained.Regressors[dims].PredictSecondsBatch(ins)
		if err != nil {
			t.Fatal(err)
		}
		if !ckptSameBitsSlice(orig, loaded) {
			t.Fatalf("%dD: batch regression drift after reload", dims)
		}
		for i, in := range ins {
			single, err := reg.PredictSeconds(in)
			if err != nil {
				t.Fatal(err)
			}
			if !ckptSameBits(orig[i], single) {
				t.Fatalf("%dD instance %d: batch %v != single %v", dims, i, orig[i], single)
			}
		}
	}
}
