package core

import (
	"fmt"
	"io"
	"math"
	"os"

	"stencilmart/internal/merge"
	"stencilmart/internal/ml"
	"stencilmart/internal/ml/nn"
	"stencilmart/internal/ml/tree"
	"stencilmart/internal/persist"
	"stencilmart/internal/profile"
	"stencilmart/internal/sim"
)

// CheckpointKind and CheckpointVersion frame the framework checkpoint in
// the persist envelope. Version bumps whenever the manifest below or the
// order of the columns changes incompatibly (see the persist package's
// versioning policy). Version 3 keeps names, shapes and configuration in
// a JSON manifest and every bulk number — the dataset's results and
// instances, tree nodes, network weights — in the frame's binary column
// section, written and read in one fixed order: dataset, then each
// classifier, then each regressor, as the manifest lists them. Files of
// versions 1 and 2 are refused from their header, not migrated (retrain
// from the dataset file, or rebuild that from its journal).
const (
	CheckpointKind    = "stencilmart-framework"
	CheckpointVersion = 3
)

// ParseClassifierKind resolves a mechanism name (GBDT, ConvNet, FcNet).
func ParseClassifierKind(name string) (ClassifierKind, error) {
	for _, k := range ClassifierKinds {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: unknown classifier %q (GBDT, ConvNet, FcNet)", name)
}

// ParseRegressorKind resolves a mechanism name (GBRegressor, MLP, ConvMLP).
func ParseRegressorKind(name string) (RegressorKind, error) {
	for _, k := range RegressorKinds {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: unknown regressor %q (GBRegressor, MLP, ConvMLP)", name)
}

// savedModel is the manifest entry of one model. Kind names what its
// columns hold: "gbdt" or "gbreg", a tree ensemble whose manifest half is
// Ensemble, or "nn", weight blocks alone — the architecture is rebuilt
// deterministically from Config, so the checkpoint stays free of
// layer-graph encodings.
type savedModel struct {
	Kind     string              `json:"kind"`
	Ensemble *tree.EnsembleState `json:"ensemble,omitempty"`
}

type savedClassifier struct {
	Arch  string     `json:"arch"`
	Dims  int        `json:"dims"`
	Model savedModel `json:"model"`
}

type savedRegressor struct {
	Dims   int        `json:"dims"`
	XScale []float64  `json:"xscale,omitempty"`
	YMean  float64    `json:"ymean"`
	YStd   float64    `json:"ystd"`
	Model  savedModel `json:"model"`
}

// schemaEntry records the input-row widths the models were trained
// against for one dimensionality. Load recomputes the widths from the
// current encoders and refuses checkpoints that disagree — feature-set
// drift between builds must fail loudly, not mispredict.
type schemaEntry struct {
	Dims       int `json:"dims"`
	ClassWidth int `json:"class_width"`
	RegWidth   int `json:"reg_width"`
}

// checkpointManifest is the JSON half of the version-3 checkpoint.
type checkpointManifest struct {
	Config         Config            `json:"config"`
	Dataset        profile.Corpus    `json:"dataset"`
	Grouping       merge.Grouping    `json:"grouping"`
	Schema         []schemaEntry     `json:"schema"`
	ClassifierKind string            `json:"classifier_kind"`
	RegressorKind  string            `json:"regressor_kind"`
	Classifiers    []savedClassifier `json:"classifiers"`
	Regressors     []savedRegressor  `json:"regressors"`
}

// featureSchema computes the current encoders' row widths per trained
// dimensionality.
func (f *Framework) featureSchema(ck ClassifierKind, rk RegressorKind) []schemaEntry {
	var out []schemaEntry
	for _, d := range f.trainDims() {
		out = append(out, schemaEntry{Dims: d, ClassWidth: classWidth(ck, d), RegWidth: regWidthFor(rk, d)})
	}
	return out
}

// snapshotClassifier appends one fitted classifier's columns to cols and
// returns its manifest entry.
func snapshotClassifier(cls ml.Classifier, cols *persist.Columns) (savedModel, error) {
	switch m := cls.(type) {
	case *tree.GBDT:
		st := m.Snapshot(cols)
		return savedModel{Kind: "gbdt", Ensemble: &st}, nil
	case *nn.Classifier:
		m.Net.AppendWeights(cols)
		return savedModel{Kind: "nn"}, nil
	default:
		return savedModel{}, fmt.Errorf("core: classifier %T cannot be serialized", cls)
	}
}

// snapshotRegressor does the same for one fitted regressor model.
func snapshotRegressor(reg ml.Regressor, cols *persist.Columns) (savedModel, error) {
	switch m := reg.(type) {
	case *tree.GBRegressor:
		st := m.Snapshot(cols)
		return savedModel{Kind: "gbreg", Ensemble: &st}, nil
	case *nn.Regressor:
		m.Net.AppendWeights(cols)
		return savedModel{Kind: "nn"}, nil
	default:
		return savedModel{}, fmt.Errorf("core: regressor %T cannot be serialized", reg)
	}
}

// Save checkpoints the framework — configuration, dataset, OC grouping,
// feature schema, and every trained model — inside a versioned,
// checksummed persist envelope. The framework must have been trained
// (TrainAll) first. A saved-then-loaded framework predicts bitwise
// identically to the in-memory one.
func (f *Framework) Save(w io.Writer) error {
	tr, err := f.requireTrained()
	if err != nil {
		return err
	}
	manifest := checkpointManifest{
		Config:         f.Cfg,
		Dataset:        f.Dataset.Corpus(),
		Grouping:       f.Grouping,
		Schema:         f.featureSchema(tr.ClassifierKind, tr.RegressorKind),
		ClassifierKind: tr.ClassifierKind.String(),
		RegressorKind:  tr.RegressorKind.String(),
	}
	var cols persist.Columns
	f.Dataset.AppendColumns(&cols)
	// Serialize in deterministic order: dataset arch order, dims ascending.
	for _, a := range f.Dataset.Archs {
		for _, d := range f.trainDims() {
			cls, ok := tr.Classifiers[a.Name][d]
			if !ok {
				return fmt.Errorf("core: trained set missing %d-D classifier for %s", d, a.Name)
			}
			sm, err := snapshotClassifier(cls, &cols)
			if err != nil {
				return err
			}
			manifest.Classifiers = append(manifest.Classifiers, savedClassifier{Arch: a.Name, Dims: d, Model: sm})
		}
	}
	for _, d := range f.trainDims() {
		reg, ok := tr.Regressors[d]
		if !ok {
			return fmt.Errorf("core: trained set missing %d-D regressor", d)
		}
		sm, err := snapshotRegressor(reg.model, &cols)
		if err != nil {
			return err
		}
		manifest.Regressors = append(manifest.Regressors, savedRegressor{
			Dims:   d,
			XScale: reg.xScale.scale,
			YMean:  reg.yScale.mean,
			YStd:   reg.yScale.std,
			Model:  sm,
		})
	}
	return persist.Write(w, CheckpointKind, CheckpointVersion, manifest, &cols)
}

// SaveFile checkpoints the framework to a file atomically.
func (f *Framework) SaveFile(path string) error { return persist.WriteFile(path, f.Save) }

// restoreClassifier rehydrates one classifier from its manifest entry and
// the next columns of cols, validating that the stored model matches the
// declared mechanism, the grouping's class count and the schema's row
// width.
func (f *Framework) restoreClassifier(ck ClassifierKind, sc savedClassifier, classWidth int, cols *persist.Columns) (ml.Classifier, error) {
	classes := f.Grouping.NumClasses()
	if ck == ClassGBDT {
		if sc.Model.Kind != "gbdt" || sc.Model.Ensemble == nil {
			return nil, fmt.Errorf("core: %s/%d-D classifier holds %q state, want gbdt", sc.Arch, sc.Dims, sc.Model.Kind)
		}
		g, err := tree.GBDTFromSnapshot(*sc.Model.Ensemble, cols, classWidth)
		if err != nil {
			return nil, fmt.Errorf("core: %s/%d-D classifier: %w", sc.Arch, sc.Dims, err)
		}
		if g.NumClasses() != classes {
			return nil, fmt.Errorf("core: %s/%d-D classifier has %d classes, grouping has %d", sc.Arch, sc.Dims, g.NumClasses(), classes)
		}
		return g, nil
	}
	if sc.Model.Kind != "nn" {
		return nil, fmt.Errorf("core: %s/%d-D classifier holds %q state, want nn", sc.Arch, sc.Dims, sc.Model.Kind)
	}
	archIdx, err := f.Dataset.ArchIndex(sc.Arch)
	if err != nil {
		return nil, err
	}
	cls, err := f.newClassifier(ck, sc.Dims, f.classifierSeed(archIdx, sc.Dims))
	if err != nil {
		return nil, err
	}
	c, ok := cls.(*nn.Classifier)
	if !ok {
		return nil, fmt.Errorf("core: %s rebuilt as %T, want *nn.Classifier", ck, cls)
	}
	if err := c.Net.ReadWeights(cols); err != nil {
		return nil, fmt.Errorf("core: %s/%d-D classifier: %w", sc.Arch, sc.Dims, err)
	}
	c.SetClasses(classes)
	return c, nil
}

// positive reports whether v is what a fitted scaler divides by: finite
// and above zero.
func positive(v float64) bool { return v > 0 && !math.IsInf(v, 0) }

// restoreRegressor rehydrates one regressor with its scalers. A scaler is
// state of the mechanisms that scale and of no other: one on a tree
// regressor would be applied to every row it scores, so it is refused,
// and a fitted one is finite and positive in every entry (NormalizeColumns
// and fitTargetScaler see to it), so anything else is too.
func (f *Framework) restoreRegressor(rk RegressorKind, sr savedRegressor, regWidth int, cols *persist.Columns) (*TrainedRegressor, error) {
	tr := &TrainedRegressor{kind: rk, f: f}
	if rk.usesScaling() {
		if len(sr.XScale) != regWidth {
			return nil, fmt.Errorf("core: %d-D regressor has %d-column scaler, schema width is %d", sr.Dims, len(sr.XScale), regWidth)
		}
		for j, v := range sr.XScale {
			if !positive(v) {
				return nil, fmt.Errorf("core: %d-D regressor scales column %d by %g", sr.Dims, j, v)
			}
		}
		if !positive(sr.YStd) {
			return nil, fmt.Errorf("core: %d-D regressor has target deviation %g", sr.Dims, sr.YStd)
		}
		tr.xScale, tr.yScale = columnScaler{scale: sr.XScale}, targetScaler{mean: sr.YMean, std: sr.YStd}
	} else if len(sr.XScale) != 0 || sr.YMean != 0 || sr.YStd != 0 {
		return nil, fmt.Errorf("core: %d-D %s regressor carries a scaler (%d columns, mean %g, deviation %g); the mechanism does not scale", sr.Dims, rk, len(sr.XScale), sr.YMean, sr.YStd)
	}
	if rk == RegGB {
		if sr.Model.Kind != "gbreg" || sr.Model.Ensemble == nil {
			return nil, fmt.Errorf("core: %d-D regressor holds %q state, want gbreg", sr.Dims, sr.Model.Kind)
		}
		g, err := tree.GBRegressorFromSnapshot(*sr.Model.Ensemble, cols, regWidth)
		if err != nil {
			return nil, fmt.Errorf("core: %d-D regressor: %w", sr.Dims, err)
		}
		tr.model = g
		return tr, nil
	}
	if sr.Model.Kind != "nn" {
		return nil, fmt.Errorf("core: %d-D regressor holds %q state, want nn", sr.Dims, sr.Model.Kind)
	}
	model, err := f.newRegressor(rk, sr.Dims, regWidth, f.regressorSeed(sr.Dims))
	if err != nil {
		return nil, err
	}
	r, ok := model.(*nn.Regressor)
	if !ok {
		return nil, fmt.Errorf("core: %s rebuilt as %T, want *nn.Regressor", rk, model)
	}
	if err := r.Net.ReadWeights(cols); err != nil {
		return nil, fmt.Errorf("core: %d-D regressor: %w", sr.Dims, err)
	}
	tr.model = r
	return tr, nil
}

// LoadFramework rehydrates a checkpointed framework: envelope checks
// (magic, kind, version, checksum) happen first in the persist layer,
// then the dataset, grouping, config, feature schema, and every model
// shape are validated before any prediction can run, the columns taken
// in the order Save appended them and none left over. The returned
// framework predicts bitwise identically to the one that saved the
// checkpoint, without re-profiling or re-training.
func LoadFramework(r io.Reader) (*Framework, error) {
	var manifest checkpointManifest
	cols, err := persist.Read(r, CheckpointKind, CheckpointVersion, &manifest)
	if err != nil {
		return nil, err
	}
	ds, err := profile.ReadColumns(manifest.Dataset, cols)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint dataset: %w", err)
	}
	if err := manifest.Config.Validate(); err != nil {
		return nil, fmt.Errorf("core: checkpoint config: %w", err)
	}
	if err := manifest.Grouping.Validate(); err != nil {
		return nil, fmt.Errorf("core: checkpoint grouping: %w", err)
	}
	ck, err := ParseClassifierKind(manifest.ClassifierKind)
	if err != nil {
		return nil, err
	}
	rk, err := ParseRegressorKind(manifest.RegressorKind)
	if err != nil {
		return nil, err
	}
	f := &Framework{Cfg: manifest.Config, Dataset: ds, Grouping: manifest.Grouping, Model: sim.New()}

	// The checkpoint's recorded feature widths must match this build's
	// encoders exactly.
	schema := f.featureSchema(ck, rk)
	if len(schema) != len(manifest.Schema) {
		return nil, fmt.Errorf("core: checkpoint schema covers %d dims, this build has %d", len(manifest.Schema), len(schema))
	}
	widths := make(map[int]schemaEntry)
	for i, e := range schema {
		if manifest.Schema[i] != e {
			return nil, fmt.Errorf("core: feature schema mismatch for %d-D: checkpoint %+v, this build %+v",
				e.Dims, manifest.Schema[i], e)
		}
		widths[e.Dims] = e
	}

	tr := &Trained{
		ClassifierKind: ck,
		RegressorKind:  rk,
		Classifiers:    make(map[string]map[int]ml.Classifier),
		Regressors:     make(map[int]*TrainedRegressor),
	}
	for _, sc := range manifest.Classifiers {
		if _, err := ds.ArchIndex(sc.Arch); err != nil {
			return nil, err
		}
		w, ok := widths[sc.Dims]
		if !ok {
			return nil, fmt.Errorf("core: checkpoint classifier for unknown dims %d", sc.Dims)
		}
		if _, dup := tr.Classifiers[sc.Arch][sc.Dims]; dup {
			return nil, fmt.Errorf("core: duplicate %d-D classifier for %s", sc.Dims, sc.Arch)
		}
		cls, err := f.restoreClassifier(ck, sc, w.ClassWidth, cols)
		if err != nil {
			return nil, err
		}
		if tr.Classifiers[sc.Arch] == nil {
			tr.Classifiers[sc.Arch] = make(map[int]ml.Classifier)
		}
		tr.Classifiers[sc.Arch][sc.Dims] = cls
	}
	for _, sr := range manifest.Regressors {
		w, ok := widths[sr.Dims]
		if !ok {
			return nil, fmt.Errorf("core: checkpoint regressor for unknown dims %d", sr.Dims)
		}
		if _, dup := tr.Regressors[sr.Dims]; dup {
			return nil, fmt.Errorf("core: duplicate %d-D regressor", sr.Dims)
		}
		reg, err := f.restoreRegressor(rk, sr, w.RegWidth, cols)
		if err != nil {
			return nil, err
		}
		tr.Regressors[sr.Dims] = reg
	}
	// Coverage: every (arch, dims) cell and every dims regressor present.
	for _, a := range ds.Archs {
		for _, d := range f.trainDims() {
			if tr.Classifiers[a.Name][d] == nil {
				return nil, fmt.Errorf("core: checkpoint missing %d-D classifier for %s", d, a.Name)
			}
		}
	}
	for _, d := range f.trainDims() {
		if tr.Regressors[d] == nil {
			return nil, fmt.Errorf("core: checkpoint missing %d-D regressor", d)
		}
	}
	if err := cols.End(); err != nil {
		return nil, err
	}
	f.Trained = tr
	return f, nil
}

// LoadFrameworkFile rehydrates a checkpoint from disk.
func LoadFrameworkFile(path string) (*Framework, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return LoadFramework(fh)
}
