package sim

import (
	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
)

// Runner is the measurement abstraction the profiling pipeline consumes:
// anything that can execute one (workload, OC, parameter setting,
// architecture) cell and report a timed Result. *Model is the canonical
// implementation; the fault injector wraps one, and tests substitute
// doubles that count calls or fail on purpose.
type Runner interface {
	Run(w Workload, oc opt.Opt, p opt.Params, arch gpu.Arch) (Result, error)
}

// *Model implements Runner.
var _ Runner = (*Model)(nil)
