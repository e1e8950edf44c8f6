package core

import (
	"fmt"

	"stencilmart/internal/gpu"
	"stencilmart/internal/ml"
	"stencilmart/internal/ml/nn"
	"stencilmart/internal/ml/tree"
	"stencilmart/internal/opt"
	"stencilmart/internal/stencil"
)

// This file builds the float32 inference lane's models over a trained
// framework: every checkpointed model compiles once — tree ensembles
// round their threshold and leaf columns to float32, networks snapshot
// into f32 forward passes. Features are computed in float64 by the one
// set of row encoders (features.go, including input scaling), then
// converted once per element, so the only f64→f32 rounding in the whole
// pipeline happens at compile time (weights) and at the row boundary
// (inputs) — never twice.

// CompiledRegressorF32 couples a compiled f32 regressor with the input
// scaling and target inversion of its float64 source.
type CompiledRegressorF32 struct {
	kind   RegressorKind
	model  ml.RegressorF32
	xScale []float64 // nil when the mechanism skips input scaling
	yScale targetScaler
}

// encodeRowF32 builds one scaled f32 input row: features encode in f64
// scratch by the reference lane's encoder, scaling divides in f64, and the
// result converts element-wise — one rounding, at the boundary.
func (r *CompiledRegressorF32) encodeRowF32(s stencil.Stencil, oc opt.Opt, p opt.Params, arch gpu.Arch, scratch []float64, dst []float32) {
	regRowInto(r.kind, s, oc, p, arch, scratch)
	if r.xScale != nil {
		for j := range scratch {
			scratch[j] /= r.xScale[j]
		}
	}
	for j, v := range scratch {
		dst[j] = float32(v)
	}
}

// invertSecondsF32 converts raw f32 model outputs to float64 seconds,
// undoing target scaling and the log2 transform in float64 — the heap
// result outlives the arena's next Reset.
func (r *CompiledRegressorF32) invertSecondsF32(vals []float32) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		x := float64(v)
		if r.kind.usesScaling() {
			x = r.yScale.invert(x)
		}
		out[i] = regInvert(x)
	}
	return out
}

// CompiledTrained is the f32 inference lane of a Trained set: the same
// (GPU, dims) classifier and dims regressor coverage, every model in its
// compiled form.
type CompiledTrained struct {
	ClassifierKind ClassifierKind
	RegressorKind  RegressorKind
	classifiers    map[string]map[int]ml.ClassifierF32
	regressors     map[int]*CompiledRegressorF32
}

// compileClassifierF32 quantizes one trained classifier.
func compileClassifierF32(cls ml.Classifier) (ml.ClassifierF32, error) {
	switch m := cls.(type) {
	case *tree.GBDT:
		return m.Compile()
	case *nn.Classifier:
		return m.CompileF32()
	default:
		return nil, fmt.Errorf("core: classifier %T has no f32 lane", cls)
	}
}

// compileRegressorF32 quantizes one trained regressor with its scalers.
func compileRegressorF32(reg *TrainedRegressor) (*CompiledRegressorF32, error) {
	out := &CompiledRegressorF32{kind: reg.kind, xScale: reg.xScale.scale, yScale: reg.yScale}
	switch m := reg.model.(type) {
	case *tree.GBRegressor:
		c, err := m.Compile()
		if err != nil {
			return nil, err
		}
		out.model = c
	case *nn.Regressor:
		c, err := m.CompileF32()
		if err != nil {
			return nil, err
		}
		out.model = c
	default:
		return nil, fmt.Errorf("core: regressor %T has no f32 lane", reg.model)
	}
	return out, nil
}

// compileTrained builds the full compiled set, failing if any model has
// no f32 form.
func compileTrained(tr *Trained) (*CompiledTrained, error) {
	ct := &CompiledTrained{
		ClassifierKind: tr.ClassifierKind,
		RegressorKind:  tr.RegressorKind,
		classifiers:    make(map[string]map[int]ml.ClassifierF32),
		regressors:     make(map[int]*CompiledRegressorF32),
	}
	for arch, byDims := range tr.Classifiers {
		for dims, cls := range byDims {
			c, err := compileClassifierF32(cls)
			if err != nil {
				return nil, fmt.Errorf("core: compiling %d-D classifier for %s: %w", dims, arch, err)
			}
			if ct.classifiers[arch] == nil {
				ct.classifiers[arch] = make(map[int]ml.ClassifierF32)
			}
			ct.classifiers[arch][dims] = c
		}
	}
	for dims, reg := range tr.Regressors {
		c, err := compileRegressorF32(reg)
		if err != nil {
			return nil, fmt.Errorf("core: compiling %d-D regressor: %w", dims, err)
		}
		ct.regressors[dims] = c
	}
	return ct, nil
}

// CompiledF32 returns the framework's f32 inference lane, compiling the
// trained set on first use and caching the result until TrainAll swaps
// in a new set. The registry compiles at publish time so serving never
// pays the build; compiled models are not safe for concurrent use — the
// serving layer's single scoring lane serializes, like the f64 models.
func (f *Framework) CompiledF32() (*CompiledTrained, error) {
	tr, err := f.requireTrained()
	if err != nil {
		return nil, err
	}
	f.compileMu.Lock()
	defer f.compileMu.Unlock()
	if f.compiled != nil && f.compiledFor == tr {
		return f.compiled, nil
	}
	ct, err := compileTrained(tr)
	if err != nil {
		return nil, err
	}
	f.compiled, f.compiledFor = ct, tr
	return ct, nil
}
