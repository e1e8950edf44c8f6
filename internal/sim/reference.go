package sim

import (
	"encoding/binary"
	"math"
	"sync"

	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
)

// Reference is the oracle the compiled path is proven against: the
// pricing body with nothing precomputed per cell — full per-call
// validation, footprint geometry, and each affinity term's embedding and
// projection (onto the per-key directions noise_test.go proves against
// the per-call code) redone per run. The differential suite asserts
// Model and Reference produce bitwise-identical Results, datasets and
// serve outputs, and the collection-throughput benchmarks use it as the
// uncompiled baseline.
type Reference struct {
	noise NoiseConfig
}

// NewReference returns the oracle with the default noise configuration.
func NewReference() *Reference {
	return &Reference{noise: DefaultNoise()}
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

// archKeys caches the per-architecture key segment: gpu.Arch is a
// comparable value struct, so identical specs share one digest and a
// user-modified Arch (even one reusing a catalog name) keys separately.
var archKeys sync.Map // gpu.Arch -> string

func archKey(a gpu.Arch) string {
	if v, ok := archKeys.Load(a); ok {
		return v.(string)
	}
	b := make([]byte, 0, len(a.Name)+len(a.Generation)+2+11*8)
	b = append(b, a.Name...)
	b = append(b, 0)
	b = append(b, a.Generation...)
	b = append(b, 0)
	for _, f := range []float64{
		a.MemGB, a.MemBWGBs, float64(a.SMs), a.TFLOPS, a.RentalPerHour,
		float64(a.RegsPerSM), float64(a.SmemPerSMKB), float64(a.MaxThreadsPerSM),
		float64(a.MaxRegsPerThread), a.L2MB, a.ClockGHz,
	} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	k := string(b)
	archKeys.Store(a, k)
	return k
}

// appendCell appends the workload's access pattern, grid extents and
// time steps: the part of a key naming the cell.
func appendCell(b []byte, w Workload) []byte {
	b = append(b, patternKey(w.S)...)
	for _, v := range [...]int{w.GridX, w.GridY, w.GridZ, w.TimeSteps} {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}
