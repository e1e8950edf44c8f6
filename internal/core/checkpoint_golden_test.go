package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"stencilmart/internal/merge"
	"stencilmart/internal/ml/tree"
	"stencilmart/internal/opt"
	"stencilmart/internal/persist"
	"stencilmart/internal/profile"
)

// checkpointGoldenPath holds the SHA-256 of the version-2 checkpoint file
// Framework.Save wrote for the seeded smoke framework with GBDT +
// GBRegressor at commit d2c5de9 — the last commit whose trees were
// fitted as pointer nodes and flattened afterwards. Like
// serve_golden.json it was recorded there and is not regenerated here.
// Version 2 is no longer written or read, but the file it pinned was a
// rendering of everything a checkpoint carries, so the digest goes on
// proving across commits — and now across the codec — that not a node,
// a threshold, an instance nor a config field has changed: renderV2
// spells a framework the way that commit's Save did.
const checkpointGoldenPath = "testdata/checkpoint_golden.json"

// checkpointGoldenV3Path pins the bytes Save writes today.
const checkpointGoldenV3Path = "testdata/checkpoint_golden_v3.json"

type checkpointGolden struct {
	RecordedAt string `json:"recorded_at"`
	GOARCH     string `json:"goarch"`
	Bytes      int    `json:"bytes"`
	SHA256     string `json:"sha256"`
}

// The version-2 payload schema, kept as the golden's oracle: one JSON
// document, the dataset in the wire form profile no longer has (wireV2, a
// marshal-only copy: plain slices marshal to the bytes persist.Ints and
// persist.Floats did) and every tree ensemble as the State its package
// still reports. (Its network branch is not needed to render the
// tree-model golden and is left out.)
type (
	// ocResultV2 is how version 2 spelled an OCResult: JSON has no NaN, so
	// a crashed result carries no time.
	ocResultV2 struct {
		OC      opt.Opt    `json:"oc"`
		Crashed bool       `json:"crashed,omitempty"`
		Time    *float64   `json:"time,omitempty"`
		Params  opt.Params `json:"params"`
	}
	profileV2 struct {
		StencilIdx int
		Arch       string
		Results    []ocResultV2
		BestOC     opt.Opt
		BestTime   float64
	}
	wireV2 struct {
		profile.Corpus
		Profiles  [][]profileV2 `json:"profiles"`
		Instances struct {
			Stencil []int     `json:"stencil"`
			OC      []int     `json:"oc"`
			Arch    []int     `json:"arch"`
			Time    []float64 `json:"time"`
			Params  []int     `json:"params"`
		} `json:"instances"`
	}
	savedModelV2 struct {
		Kind  string                 `json:"kind"`
		GBDT  *tree.GBDTState        `json:"gbdt,omitempty"`
		GBReg *tree.GBRegressorState `json:"gbreg,omitempty"`
	}
	savedClassifierV2 struct {
		Arch  string       `json:"arch"`
		Dims  int          `json:"dims"`
		Model savedModelV2 `json:"model"`
	}
	savedRegressorV2 struct {
		Dims   int          `json:"dims"`
		XScale []float64    `json:"xscale,omitempty"`
		YMean  float64      `json:"ymean"`
		YStd   float64      `json:"ystd"`
		Model  savedModelV2 `json:"model"`
	}
	checkpointPayloadV2 struct {
		Config         Config              `json:"config"`
		Dataset        wireV2              `json:"dataset"`
		Grouping       merge.Grouping      `json:"grouping"`
		Schema         []schemaEntry       `json:"schema"`
		ClassifierKind string              `json:"classifier_kind"`
		RegressorKind  string              `json:"regressor_kind"`
		Classifiers    []savedClassifierV2 `json:"classifiers"`
		Regressors     []savedRegressorV2  `json:"regressors"`
	}
)

// renderWireV2 spells a dataset as version 2 did.
func renderWireV2(d *profile.Dataset) wireV2 {
	w := wireV2{Corpus: d.Corpus(), Profiles: make([][]profileV2, len(d.Profiles))}
	for ai, row := range d.Profiles {
		for _, p := range row {
			pv := profileV2{StencilIdx: p.StencilIdx, Arch: p.Arch, BestOC: p.BestOC, BestTime: p.BestTime}
			for _, r := range p.Results {
				rv := ocResultV2{OC: r.OC, Crashed: r.Crashed, Params: r.Params}
				if !r.Crashed {
					rv.Time = &r.Time
				}
				pv.Results = append(pv.Results, rv)
			}
			w.Profiles[ai] = append(w.Profiles[ai], pv)
		}
	}
	in := &w.Instances
	in.Params = []int{} // an empty column marshalled as [], not null
	for _, x := range d.Instances {
		ai, _ := d.ArchIndex(x.Arch)
		smem := 0
		if x.Params.UseSmem {
			smem = 1
		}
		in.Stencil, in.OC, in.Arch, in.Time = append(in.Stencil, x.StencilIdx), append(in.OC, int(x.OC)), append(in.Arch, ai), append(in.Time, x.Time)
		in.Params = append(in.Params, x.Params.BlockX, x.Params.BlockY, x.Params.Merge, x.Params.MergeDim, x.Params.StreamTile, x.Params.StreamDim,
			x.Params.Unroll, smem, x.Params.TBDepth, x.Params.PrefetchDepth)
	}
	return w
}

// renderV2 writes the version-2 file of a framework trained with GBDT +
// GBRegressor: the header line with the payload's length, then the
// payload, one JSON document.
func renderV2(t *testing.T, f *Framework) []byte {
	t.Helper()
	tr := f.Trained
	payload := checkpointPayloadV2{
		Config: f.Cfg, Dataset: renderWireV2(f.Dataset), Grouping: f.Grouping, Schema: f.featureSchema(tr.ClassifierKind, tr.RegressorKind),
		ClassifierKind: tr.ClassifierKind.String(), RegressorKind: tr.RegressorKind.String(),
	}
	for _, a := range f.Dataset.Archs {
		for _, d := range f.trainDims() {
			st := tr.Classifiers[a.Name][d].(*tree.GBDT).State()
			payload.Classifiers = append(payload.Classifiers, savedClassifierV2{Arch: a.Name, Dims: d, Model: savedModelV2{Kind: "gbdt", GBDT: &st}})
		}
	}
	for _, d := range f.trainDims() {
		reg := tr.Regressors[d]
		st := reg.model.(*tree.GBRegressor).State()
		payload.Regressors = append(payload.Regressors, savedRegressorV2{Dims: d, XScale: reg.xScale.scale, YMean: reg.yScale.mean, YStd: reg.yScale.std,
			Model: savedModelV2{Kind: "gbreg", GBReg: &st}})
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	head := fmt.Sprintf(`{"magic":%q,"kind":%q,"version":2,"checksum":%q,"bytes":%d}`+"\n", persist.Magic, CheckpointKind, hex.EncodeToString(sum[:]), len(raw))
	return append([]byte(head), raw...)
}

// readGolden loads a recorded digest, skipping the test on another
// architecture (floating point is allowed to differ there).
func readGolden(t *testing.T, path string) checkpointGolden {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var golden checkpointGolden
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if golden.GOARCH != runtime.GOARCH {
		t.Skipf("golden recorded on %s, running on %s", golden.GOARCH, runtime.GOARCH)
	}
	return golden
}

func (g checkpointGolden) check(t *testing.T, what string, file []byte) {
	t.Helper()
	sum := sha256.Sum256(file)
	if got := hex.EncodeToString(sum[:]); got != g.SHA256 || len(file) != g.Bytes {
		t.Fatalf("%s is %d bytes, sha256 %s; recorded %d bytes, %s", what, len(file), got, g.Bytes, g.SHA256)
	}
}

// TestCheckpointBytesPinned asserts the version-3 digest on a freshly
// trained framework, and that LoadFramework → Save reproduces the same
// file byte for byte.
func TestCheckpointBytesPinned(t *testing.T) {
	golden := readGolden(t, checkpointGoldenV3Path)
	if CheckpointVersion != 3 {
		t.Fatalf("CheckpointVersion %d, the pinned bytes are version 3", CheckpointVersion)
	}
	fw := ckptFramework(t)
	if err := fw.TrainAll(context.Background(), ClassGBDT, RegGB); err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := fw.Save(&saved); err != nil {
		t.Fatal(err)
	}
	golden.check(t, "checkpoint", saved.Bytes())
	lf, err := LoadFramework(bytes.NewReader(saved.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := lf.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), again.Bytes()) {
		t.Fatalf("load → save wrote %d bytes that differ from the %d loaded", again.Len(), saved.Len())
	}
}

// TestCheckpointV2DigestSurvivesV3 asserts the digest recorded at d2c5de9,
// unedited, on the version-2 rendering of a framework that has been
// through version 3: Save → LoadFramework, then spelled the old way.
// Everything the old file held — every node, threshold, instance, result
// and config field — therefore survived the new codec bit for bit.
func TestCheckpointV2DigestSurvivesV3(t *testing.T) {
	golden := readGolden(t, checkpointGoldenPath)
	fw := ckptFramework(t)
	if err := fw.TrainAll(context.Background(), ClassGBDT, RegGB); err != nil {
		t.Fatal(err)
	}
	golden.check(t, "version-2 rendering of the trained framework", renderV2(t, fw))
	golden.check(t, "version-2 rendering of the reloaded framework", renderV2(t, reloaded(t, fw)))
}
