package core

import (
	"fmt"
	"io"
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
// the persist envelope. Version bumps whenever the payload schema below
// changes incompatibly (see the persist package's versioning policy).
// Version 2 is the framed envelope with the dataset's instances and every
// tree's nodes stored as columns; version-1 files are refused, not
// migrated (retrain, or rebuild the dataset from its journal).
const (
	CheckpointKind    = "stencilmart-framework"
	CheckpointVersion = 2
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

// savedModel is the tagged union of serialized model states. Exactly one
// branch is set, named by Kind.
type savedModel struct {
	Kind  string                 `json:"kind"` // "gbdt", "gbreg", or "nn"
	GBDT  *tree.GBDTState        `json:"gbdt,omitempty"`
	GBReg *tree.GBRegressorState `json:"gbreg,omitempty"`
	// NN holds the flat weight blocks of a network model; the
	// architecture itself is rebuilt deterministically from Config, so
	// the checkpoint stays free of layer-graph encodings.
	NN [][]float64 `json:"nn,omitempty"`
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

// checkpointPayload is the version-2 framework checkpoint schema.
type checkpointPayload struct {
	Config         Config            `json:"config"`
	Dataset        profile.Wire      `json:"dataset"`
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

// snapshotClassifier serializes one fitted classifier.
func snapshotClassifier(cls ml.Classifier) (savedModel, error) {
	switch m := cls.(type) {
	case *tree.GBDT:
		st := m.State()
		return savedModel{Kind: "gbdt", GBDT: &st}, nil
	case *nn.Classifier:
		return savedModel{Kind: "nn", NN: m.Net.WeightSnapshot()}, nil
	default:
		return savedModel{}, fmt.Errorf("core: classifier %T cannot be serialized", cls)
	}
}

// snapshotRegressor serializes one fitted regressor model.
func snapshotRegressor(reg ml.Regressor) (savedModel, error) {
	switch m := reg.(type) {
	case *tree.GBRegressor:
		st := m.State()
		return savedModel{Kind: "gbreg", GBReg: &st}, nil
	case *nn.Regressor:
		return savedModel{Kind: "nn", NN: m.Net.WeightSnapshot()}, nil
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
	payload := checkpointPayload{
		Config:         f.Cfg,
		Dataset:        f.Dataset.Wire(),
		Grouping:       f.Grouping,
		Schema:         f.featureSchema(tr.ClassifierKind, tr.RegressorKind),
		ClassifierKind: tr.ClassifierKind.String(),
		RegressorKind:  tr.RegressorKind.String(),
	}
	// Serialize in deterministic order: dataset arch order, dims ascending.
	for _, a := range f.Dataset.Archs {
		for _, d := range f.trainDims() {
			cls, ok := tr.Classifiers[a.Name][d]
			if !ok {
				return fmt.Errorf("core: trained set missing %d-D classifier for %s", d, a.Name)
			}
			sm, err := snapshotClassifier(cls)
			if err != nil {
				return err
			}
			payload.Classifiers = append(payload.Classifiers, savedClassifier{Arch: a.Name, Dims: d, Model: sm})
		}
	}
	for _, d := range f.trainDims() {
		reg, ok := tr.Regressors[d]
		if !ok {
			return fmt.Errorf("core: trained set missing %d-D regressor", d)
		}
		sm, err := snapshotRegressor(reg.model)
		if err != nil {
			return err
		}
		payload.Regressors = append(payload.Regressors, savedRegressor{
			Dims:   d,
			XScale: reg.xScale.scale,
			YMean:  reg.yScale.mean,
			YStd:   reg.yScale.std,
			Model:  sm,
		})
	}
	return persist.Write(w, CheckpointKind, CheckpointVersion, payload)
}

// SaveFile checkpoints the framework to a file atomically.
func (f *Framework) SaveFile(path string) error { return persist.WriteFile(path, f.Save) }

// restoreClassifier rehydrates one classifier, validating that the stored
// model matches the declared mechanism, the grouping's class count and
// the schema's row width.
func (f *Framework) restoreClassifier(ck ClassifierKind, sc savedClassifier, classWidth int) (ml.Classifier, error) {
	classes := f.Grouping.NumClasses()
	if ck == ClassGBDT {
		if sc.Model.Kind != "gbdt" || sc.Model.GBDT == nil {
			return nil, fmt.Errorf("core: %s/%d-D classifier holds %q state, want gbdt", sc.Arch, sc.Dims, sc.Model.Kind)
		}
		g, err := tree.GBDTFromState(*sc.Model.GBDT, classWidth)
		if err != nil {
			return nil, fmt.Errorf("core: %s/%d-D classifier: %w", sc.Arch, sc.Dims, err)
		}
		if g.NumClasses() != classes {
			return nil, fmt.Errorf("core: %s/%d-D classifier has %d classes, grouping has %d", sc.Arch, sc.Dims, g.NumClasses(), classes)
		}
		return g, nil
	}
	if sc.Model.Kind != "nn" || sc.Model.NN == nil {
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
	if err := c.Net.LoadWeights(sc.Model.NN); err != nil {
		return nil, fmt.Errorf("core: %s/%d-D classifier: %w", sc.Arch, sc.Dims, err)
	}
	c.SetClasses(classes)
	return c, nil
}

// restoreRegressor rehydrates one regressor with its scalers.
func (f *Framework) restoreRegressor(rk RegressorKind, sr savedRegressor, regWidth int) (*TrainedRegressor, error) {
	tr := &TrainedRegressor{
		kind:   rk,
		f:      f,
		xScale: columnScaler{scale: sr.XScale},
		yScale: targetScaler{mean: sr.YMean, std: sr.YStd},
	}
	if rk.usesScaling() && len(sr.XScale) != regWidth {
		return nil, fmt.Errorf("core: %d-D regressor has %d-column scaler, schema width is %d", sr.Dims, len(sr.XScale), regWidth)
	}
	if rk == RegGB {
		if sr.Model.Kind != "gbreg" || sr.Model.GBReg == nil {
			return nil, fmt.Errorf("core: %d-D regressor holds %q state, want gbreg", sr.Dims, sr.Model.Kind)
		}
		g, err := tree.GBRegressorFromState(*sr.Model.GBReg, regWidth)
		if err != nil {
			return nil, fmt.Errorf("core: %d-D regressor: %w", sr.Dims, err)
		}
		tr.model = g
		return tr, nil
	}
	if sr.Model.Kind != "nn" || sr.Model.NN == nil {
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
	if err := r.Net.LoadWeights(sr.Model.NN); err != nil {
		return nil, fmt.Errorf("core: %d-D regressor: %w", sr.Dims, err)
	}
	tr.model = r
	return tr, nil
}

// LoadFramework rehydrates a checkpointed framework: envelope checks
// (magic, kind, version, checksum) happen first in the persist layer,
// then the dataset, grouping, config, feature schema, and every model
// shape are validated before any prediction can run. The returned
// framework predicts bitwise identically to the one that saved the
// checkpoint, without re-profiling or re-training.
func LoadFramework(r io.Reader) (*Framework, error) {
	var payload checkpointPayload
	if err := persist.Read(r, CheckpointKind, CheckpointVersion, &payload); err != nil {
		return nil, err
	}
	ds, err := payload.Dataset.Dataset()
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint dataset: %w", err)
	}
	if err := payload.Config.Validate(); err != nil {
		return nil, fmt.Errorf("core: checkpoint config: %w", err)
	}
	if err := payload.Grouping.Validate(); err != nil {
		return nil, fmt.Errorf("core: checkpoint grouping: %w", err)
	}
	ck, err := ParseClassifierKind(payload.ClassifierKind)
	if err != nil {
		return nil, err
	}
	rk, err := ParseRegressorKind(payload.RegressorKind)
	if err != nil {
		return nil, err
	}
	f := &Framework{Cfg: payload.Config, Dataset: ds, Grouping: payload.Grouping, Model: sim.New()}

	// The checkpoint's recorded feature widths must match this build's
	// encoders exactly.
	schema := f.featureSchema(ck, rk)
	if len(schema) != len(payload.Schema) {
		return nil, fmt.Errorf("core: checkpoint schema covers %d dims, this build has %d", len(payload.Schema), len(schema))
	}
	widths := make(map[int]schemaEntry)
	for i, e := range schema {
		if payload.Schema[i] != e {
			return nil, fmt.Errorf("core: feature schema mismatch for %d-D: checkpoint %+v, this build %+v",
				e.Dims, payload.Schema[i], e)
		}
		widths[e.Dims] = e
	}

	tr := &Trained{
		ClassifierKind: ck,
		RegressorKind:  rk,
		Classifiers:    make(map[string]map[int]ml.Classifier),
		Regressors:     make(map[int]*TrainedRegressor),
	}
	for _, sc := range payload.Classifiers {
		if _, err := ds.ArchIndex(sc.Arch); err != nil {
			return nil, err
		}
		w, ok := widths[sc.Dims]
		if !ok {
			return nil, fmt.Errorf("core: checkpoint classifier for unknown dims %d", sc.Dims)
		}
		cls, err := f.restoreClassifier(ck, sc, w.ClassWidth)
		if err != nil {
			return nil, err
		}
		if tr.Classifiers[sc.Arch] == nil {
			tr.Classifiers[sc.Arch] = make(map[int]ml.Classifier)
		}
		if _, dup := tr.Classifiers[sc.Arch][sc.Dims]; dup {
			return nil, fmt.Errorf("core: duplicate %d-D classifier for %s", sc.Dims, sc.Arch)
		}
		tr.Classifiers[sc.Arch][sc.Dims] = cls
	}
	for _, sr := range payload.Regressors {
		w, ok := widths[sr.Dims]
		if !ok {
			return nil, fmt.Errorf("core: checkpoint regressor for unknown dims %d", sr.Dims)
		}
		reg, err := f.restoreRegressor(rk, sr, w.RegWidth)
		if err != nil {
			return nil, err
		}
		if _, dup := tr.Regressors[sr.Dims]; dup {
			return nil, fmt.Errorf("core: duplicate %d-D regressor", sr.Dims)
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
