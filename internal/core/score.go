package core

import (
	"stencilmart/internal/gpu"
	"stencilmart/internal/ml"
)

// ServeConcurrent reports whether ServePredictBatch and
// ServePredictBatchF32 are safe for concurrent use on f: iff its trained
// set is GBDT + GBRegressor. Compiled tree ensembles are immutable and
// score into caller buffers; nn forwards own scratch.
func (f *Framework) ServeConcurrent() bool {
	tr := f.Trained
	return tr != nil && tr.ClassifierKind == ClassGBDT && tr.RegressorKind == RegGB
}

// scorer scores one batch's model groups through the compiled float32
// models. Every row and output block comes from the arena: rows encode
// in float64 scratch by the encoders training uses and convert once per
// element. Class probabilities and times leave as float64 heap copies,
// because outcomes outlive the arena's next Reset. Each method converts
// a model panic into an error; the *One forms score a single item, which
// the pipeline retries with when a batched call fails.
type scorer struct {
	ct    *CompiledTrained
	arena *ServeArena
	archs []gpu.Arch
}

// scoreClassify encodes the group into arena rows and scores it,
// returning the flat len(items) x Classes() arena block. One classifier
// serves one (GPU, dims) pair, so the group's row width is uniform. Zero
// heap allocations once the arena is warm.
func (sc *scorer) scoreClassify(cls ml.ClassifierF32, items []*serveItem) []float32 {
	kind := sc.ct.ClassifierKind
	width := classWidth(kind, items[0].req.Stencil.Dims)
	rows := sc.arena.Rows(len(items))
	scratch := sc.arena.F64(width)
	for i, it := range items {
		row := sc.arena.F32(width)
		classRowInto(kind, it.req.Stencil, scratch)
		for j, v := range scratch {
			row[j] = float32(v)
		}
		rows[i] = row
	}
	out := sc.arena.F32(len(items) * cls.Classes())
	cls.PredictProbaBatchF32(rows, out)
	return out
}

func (sc *scorer) classify(cls ml.ClassifierF32, items []*serveItem) (err error) {
	defer recoverAs(&err, "batched f32 classify")
	out, classes := sc.scoreClassify(cls, items), cls.Classes()
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

func (sc *scorer) classifyOne(cls ml.ClassifierF32, it *serveItem) error {
	return sc.classify(cls, []*serveItem{it})
}

// scoreRegress is scoreClassify for one dims group's len(items) x
// len(archs) regression rows.
func (sc *scorer) scoreRegress(reg *CompiledRegressorF32, items []*serveItem) []float32 {
	n := len(sc.archs)
	width := regWidthFor(reg.kind, items[0].req.Stencil.Dims)
	rows := sc.arena.Rows(len(items) * n)
	scratch := sc.arena.F64(width)
	for i, it := range items {
		for ai, arch := range sc.archs {
			row := sc.arena.F32(width)
			reg.encodeRowF32(it.req.Stencil, it.oc, it.tuned.Params, arch, scratch, row)
			rows[i*n+ai] = row
		}
	}
	out := sc.arena.F32(len(rows))
	reg.model.PredictValueBatchF32(rows, out)
	return out
}

func (sc *scorer) regress(reg *CompiledRegressorF32, items []*serveItem) (err error) {
	defer recoverAs(&err, "batched f32 regression")
	out, n := sc.scoreRegress(reg, items), len(sc.archs)
	for i, it := range items {
		it.times = reg.invertSecondsF32(out[i*n : (i+1)*n])
	}
	return nil
}

func (sc *scorer) regressOne(reg *CompiledRegressorF32, it *serveItem) error {
	return sc.regress(reg, []*serveItem{it})
}
