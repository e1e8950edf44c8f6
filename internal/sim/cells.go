package sim

import "stencilmart/internal/gpu"

// Cells is the one measurement seam the profiling pipeline consumes: it
// resolves a (workload, architecture) cell to the EvalFn that prices the
// cell's (OC, parameter setting) samples. *Model is the one product
// implementation and compiles the cell once; the tests' Reference oracle
// and test doubles wrap a cell the same way, so every collection prices
// through the path a plain one takes.
type Cells interface {
	CellFn(w Workload, arch gpu.Arch) EvalFn
}

var _ Cells = (*Model)(nil)
