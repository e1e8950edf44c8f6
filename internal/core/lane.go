package core

import (
	"fmt"

	"stencilmart/internal/gpu"
	"stencilmart/internal/ml"
)

// ServeConcurrent reports whether ServePredictBatch and
// ServePredictBatchF32 are safe for concurrent use on f: iff its trained
// set is GBDT + GBRegressor. Tree ensembles are immutable once fitted and
// score into caller buffers in both formats; nn forwards own scratch.
func (f *Framework) ServeConcurrent() bool {
	tr := f.Trained
	return tr != nil && tr.ClassifierKind == ClassGBDT && tr.RegressorKind == RegGB
}

// serveLane is what differs between the float64 and float32 serving
// paths: the numeric format models score in. A lane resolves model
// handles (C and R, classifier and regressor) and scores one model group
// per call through one batched model call, owning whatever scratch that
// takes; the *One forms score a single item, which the pipeline retries
// with when a batched call fails. All four convert a model panic into an
// error.
type serveLane[C, R comparable] interface {
	// open binds the lane to the framework's trained set for one batch.
	open(f *Framework, tr *Trained) error
	// classifier resolves the (GPU, dims) classifier or reports the
	// coverage error admission returns.
	classifier(gpuName string, dims int) (C, error)
	regressor(dims int) (R, bool)
	classify(cls C, items []*serveItem) error
	classifyOne(cls C, it *serveItem) error
	regress(reg R, items []*serveItem) error
	regressOne(reg R, it *serveItem) error
}

// laneF64 scores through the trained float64 models; rows and outputs
// live on the heap.
type laneF64 struct {
	tr    *Trained
	archs []gpu.Arch
}

func (l *laneF64) open(f *Framework, tr *Trained) error {
	l.tr, l.archs = tr, f.Dataset.Archs
	return nil
}

func (l *laneF64) classifier(gpuName string, dims int) (ml.Classifier, error) {
	return classifierIn(l.tr.Classifiers, gpuName, dims)
}

func (l *laneF64) regressor(dims int) (*TrainedRegressor, bool) {
	reg, ok := l.tr.Regressors[dims]
	return reg, ok
}

func (l *laneF64) classify(cls ml.Classifier, items []*serveItem) (err error) {
	defer recoverAs(&err, "batched classify")
	rows := make([][]float64, len(items))
	for i, it := range items {
		rows[i] = classEncode(l.tr.ClassifierKind, it.req.Stencil)
	}
	probas := cls.PredictProbaBatch(rows)
	if len(probas) != len(rows) {
		return fmt.Errorf("core: batched classify returned %d rows for %d", len(probas), len(rows))
	}
	for i, it := range items {
		it.class, it.proba = ml.ArgMax(probas[i]), probas[i]
	}
	return nil
}

func (l *laneF64) classifyOne(cls ml.Classifier, it *serveItem) (err error) {
	defer recoverAs(&err, "classify")
	proba := probaOne(cls, classEncode(l.tr.ClassifierKind, it.req.Stencil))
	it.class, it.proba = ml.ArgMax(proba), proba
	return nil
}

// regress scores the group's len(items) x len(archs) rows in one pass and
// slices the flat output back per item.
func (l *laneF64) regress(reg *TrainedRegressor, items []*serveItem) (err error) {
	defer recoverAs(&err, "batched regression")
	n := len(l.archs)
	rows := make([][]float64, 0, len(items)*n)
	for _, it := range items {
		rows = append(rows, reg.stencilRows(it.req.Stencil, it.oc, it.tuned.Params, l.archs)...)
	}
	vals := reg.model.PredictValueBatch(rows)
	if len(vals) != len(rows) {
		return fmt.Errorf("core: batched regression returned %d values for %d rows", len(vals), len(rows))
	}
	reg.invertSeconds(vals)
	for i, it := range items {
		it.times = vals[i*n : (i+1)*n : (i+1)*n]
	}
	return nil
}

func (l *laneF64) regressOne(reg *TrainedRegressor, it *serveItem) (err error) {
	defer recoverAs(&err, "regression")
	it.times = reg.PredictStencilSeconds(it.req.Stencil, it.oc, it.tuned.Params, l.archs)
	return nil
}

// laneF32 scores through the compiled float32 models. Every row and
// output block comes from the arena: rows encode in float64 scratch by
// the same encoders the f64 lane uses and convert once per element.
// Class probabilities and times leave as float64 heap copies, because
// outcomes outlive the arena's next Reset.
type laneF32 struct {
	ct    *CompiledTrained
	arena *ServeArena
	archs []gpu.Arch
}

func (l *laneF32) open(f *Framework, _ *Trained) (err error) {
	if l.ct, err = f.CompiledF32(); err != nil {
		return err
	}
	if l.arena == nil {
		l.arena = NewServeArena()
	}
	l.arena.Reset()
	l.archs = f.Dataset.Archs
	return nil
}

func (l *laneF32) classifier(gpuName string, dims int) (ml.ClassifierF32, error) {
	return classifierIn(l.ct.classifiers, gpuName, dims)
}

func (l *laneF32) regressor(dims int) (*CompiledRegressorF32, bool) {
	reg, ok := l.ct.regressors[dims]
	return reg, ok
}

// scoreClassify encodes the group into arena rows and scores it,
// returning the flat len(items) x Classes() arena block. One classifier
// serves one (GPU, dims) pair, so the group's row width is uniform. Zero
// heap allocations once the arena is warm.
func (l *laneF32) scoreClassify(cls ml.ClassifierF32, items []*serveItem) []float32 {
	kind := l.ct.ClassifierKind
	width := classWidth(kind, items[0].req.Stencil.Dims)
	rows := l.arena.Rows(len(items))
	scratch := l.arena.F64(width)
	for i, it := range items {
		row := l.arena.F32(width)
		classRowInto(kind, it.req.Stencil, scratch)
		for j, v := range scratch {
			row[j] = float32(v)
		}
		rows[i] = row
	}
	out := l.arena.F32(len(items) * cls.Classes())
	cls.PredictProbaBatchF32(rows, out)
	return out
}

func (l *laneF32) classify(cls ml.ClassifierF32, items []*serveItem) (err error) {
	defer recoverAs(&err, "batched f32 classify")
	out, classes := l.scoreClassify(cls, items), cls.Classes()
	for i, it := range items {
		row := out[i*classes : (i+1)*classes]
		it.proba = make([]float64, classes)
		for k, v := range row {
			it.proba[k] = float64(v)
		}
		it.class = ml.ArgMax(row)
	}
	return nil
}

func (l *laneF32) classifyOne(cls ml.ClassifierF32, it *serveItem) error {
	return l.classify(cls, []*serveItem{it})
}

// scoreRegress is scoreClassify for one dims group's len(items) x
// len(archs) regression rows.
func (l *laneF32) scoreRegress(reg *CompiledRegressorF32, items []*serveItem) []float32 {
	n := len(l.archs)
	width := regWidthFor(reg.kind, items[0].req.Stencil.Dims)
	rows := l.arena.Rows(len(items) * n)
	scratch := l.arena.F64(width)
	for i, it := range items {
		for ai, arch := range l.archs {
			row := l.arena.F32(width)
			reg.encodeRowF32(it.req.Stencil, it.oc, it.tuned.Params, arch, scratch, row)
			rows[i*n+ai] = row
		}
	}
	out := l.arena.F32(len(rows))
	reg.model.PredictValueBatchF32(rows, out)
	return out
}

func (l *laneF32) regress(reg *CompiledRegressorF32, items []*serveItem) (err error) {
	defer recoverAs(&err, "batched f32 regression")
	out, n := l.scoreRegress(reg, items), len(l.archs)
	for i, it := range items {
		it.times = reg.invertSecondsF32(out[i*n : (i+1)*n])
	}
	return nil
}

func (l *laneF32) regressOne(reg *CompiledRegressorF32, it *serveItem) error {
	return l.regress(reg, []*serveItem{it})
}
