package sim

import (
	"math"

	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
	"stencilmart/internal/stencil"
)

// Reference is the oracle the compiled path is proven against: the
// pricing body with nothing precomputed per cell — full per-call
// validation, footprint geometry, and each affinity term's embedding and
// projection (onto the per-key directions noise_test.go proves against
// the per-call code) redone per run. The differential suite asserts
// Model and Reference produce bitwise-identical Results, datasets and
// serve outputs, and the collection-throughput benchmarks use it as the
// uncompiled baseline. It is test code: package sim_test reaches it
// through this file, like the rest of the package's test exports.
type Reference struct {
	noise noiseConfig
}

var _ Cells = (*Reference)(nil)

// NewReference returns the oracle with the calibrated noise configuration.
func NewReference() *Reference {
	return &Reference{noise: defaultNoise()}
}

// CellFn returns the cell's EvalFn. It precomputes nothing: every call
// validates everything, prices the sample and layers noise computed from
// scratch.
func (m *Reference) CellFn(w Workload, arch gpu.Arch) EvalFn {
	return func(oc opt.Opt, p opt.Params) (Result, error) {
		if err := w.Validate(); err != nil {
			return Result{}, err
		}
		if err := oc.ValidationError(); err != nil {
			return Result{}, err
		}
		if err := p.Validate(oc, w.S.Dims); err != nil {
			return Result{}, err
		}

		g := cellGeom(w.S, &arch)
		r, err := priceNoiseless(&w, oc, &p, &arch, &g)
		if err != nil {
			return Result{}, err
		}
		r.Time *= m.noise.factor(w.S, oc, p, arch)
		return r, nil
	}
}

// factor returns the multiplicative noise for one simulated run.
func (n noiseConfig) factor(s stencil.Stencil, oc opt.Opt, p opt.Params, arch gpu.Arch) float64 {
	key := patternKey(s)
	ocb := byte(oc)
	e := n.Measurement*gauss(key, ocb, paramsKey(p), arch.Name) +
		n.StencilArch*projection(s, "arch:"+arch.Name) +
		n.StencilOC*projection(s, "oc:"+string(ocb)) +
		n.OCArch*gauss("", ocb, "", arch.Name)
	return math.Exp(e)
}

// projection returns an approximately standard-normal smooth function of
// the stencil, standardized per key against the reference corpus.
func projection(s stencil.Stencil, key string) float64 {
	f := phi(s)
	return directionOf(key).project(&f)
}

func paramsKey(p opt.Params) string {
	b := paramsBytes(p)
	return string(b[:])
}
