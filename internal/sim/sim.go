// Package sim is the GPU execution substrate of this reproduction: an
// analytical performance model that plays the role of the real
// P100/V100/2080Ti/A100 machines in the paper. Given a stencil, an
// optimization combination (OC), a parameter setting and a GPU
// architecture, it produces an execution time with the same structural
// dependencies real stencil kernels exhibit:
//
//   - memory traffic shaped by cache-line reuse, halo overheads, merging,
//     streaming, shared-memory tiling and temporal blocking;
//   - register and shared-memory pressure that throttles occupancy,
//     spills, or crashes the kernel outright;
//   - synchronization and kernel-launch overheads that prefetching and
//     temporal blocking amortize;
//   - deterministic "measurement" noise plus per-(stencil, architecture)
//     affinity noise standing in for unmodeled microarchitectural effects.
//
// Every downstream component — profiling, best-OC labeling, PCC merging,
// model training, baselines — consumes this substrate exactly as the
// paper's pipeline consumes real GPU measurements.
package sim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"stencilmart/internal/stencil"
)

// ErrCrash reports that the kernel cannot execute at all under the given
// OC and setting (resource spilling beyond hard limits), matching the
// paper's observation that some OCs crash for some stencils.
var ErrCrash = errors.New("sim: kernel crash (intra-SM resource spilling)")

// ErrInvalidConfig reports that this particular parameter setting does not
// fit the architecture (e.g. shared-memory overflow); other settings of
// the same OC may still run.
var ErrInvalidConfig = errors.New("sim: parameter setting exceeds hardware limits")

// Workload is one stencil execution problem: the access pattern, the grid
// extents and the number of time steps measured.
type Workload struct {
	S stencil.Stencil
	// GridX, GridY, GridZ are the grid extents; GridZ is 1 for 2-D.
	GridX, GridY, GridZ int
	// TimeSteps is the number of sweeps timed.
	TimeSteps int
}

// DefaultSteps is the number of sweeps a default workload times.
const DefaultSteps = 8

// DefaultWorkload wraps a stencil with the paper's grid sizes: 8192^2 for
// 2-D stencils and 512^3 for 3-D.
func DefaultWorkload(s stencil.Stencil) Workload {
	w := Workload{S: s, TimeSteps: DefaultSteps}
	if s.Dims == 2 {
		w.GridX, w.GridY, w.GridZ = 8192, 8192, 1
	} else {
		w.GridX, w.GridY, w.GridZ = 512, 512, 512
	}
	return w
}

// Points returns the number of grid points per sweep.
func (w *Workload) Points() float64 {
	return float64(w.GridX) * float64(w.GridY) * float64(w.GridZ)
}

// Validate checks the workload invariants.
func (w Workload) Validate() error {
	if err := w.S.Validate(); err != nil {
		return err
	}
	if w.GridX < 1 || w.GridY < 1 || w.GridZ < 1 {
		return fmt.Errorf("sim: invalid grid %dx%dx%d", w.GridX, w.GridY, w.GridZ)
	}
	if w.S.Dims == 2 && w.GridZ != 1 {
		return fmt.Errorf("sim: 2-D workload with gridZ=%d", w.GridZ)
	}
	if w.TimeSteps < 1 {
		return fmt.Errorf("sim: time steps %d < 1", w.TimeSteps)
	}
	return nil
}

// Result is one simulated execution.
type Result struct {
	// Time is the end-to-end execution time in seconds for all sweeps.
	Time float64
	// Compute, Memory, Sync and Launch break the noiseless time down into
	// its model terms (seconds).
	Compute, Memory, Sync, Launch float64
	// Occupancy is the achieved SM thread occupancy in [0, 1].
	Occupancy float64
	// RegsPerThread is the modeled register demand before capping.
	RegsPerThread float64
	// SmemPerBlockKB is the shared-memory demand per thread block.
	SmemPerBlockKB float64
	// SpillBytes is the per-thread register spill volume in bytes.
	SpillBytes float64
}

// Model evaluates workloads on simulated architectures. The zero value is
// not usable; construct with New. Models are safe for concurrent use: one
// mutex guards the evaluator table, each memoizing cell has its own, and
// the noise tables are lock-free.
//
// Evaluation compiles: the first touch of a (workload, stencil, arch)
// cell builds a CellEvaluator holding every sample-invariant precompute,
// and consumers hold it (Model.Evaluator / Model.CellFn) across their
// sample loops. The evaluator table is the model's one bounded structure:
// a cell that is looked up again memoizes its samples (cache.go), and the
// table, memos included, resets wholesale when it is full.
type Model struct {
	noise noiseConfig

	// evalMu guards table: the pointer and the cells map behind it.
	evalMu sync.Mutex
	table  *evalTable

	hits, misses, evictions atomic.Uint64
}

// New returns a model with the calibrated noise configuration.
func New() *Model { return &Model{noise: defaultNoise(), table: newEvalTable()} }

// CacheStats returns a snapshot of the sample-memo counters. It reads
// four counters, so polling it from /statsz costs the same whatever the
// table holds; Entries and Evictions are read under the table's lock, so
// a reset shows in both or in neither.
func (m *Model) CacheStats() CacheStats {
	m.evalMu.Lock()
	entries, evictions := m.table.samples.Load(), m.evictions.Load()
	m.evalMu.Unlock()
	return CacheStats{
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Evictions: evictions,
		Entries:   int(entries),
	}
}
