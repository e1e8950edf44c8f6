package sim

import (
	"fmt"
	"math"

	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
)

// resources captures the per-thread and per-block resource demand of a
// kernel configuration.
type resources struct {
	// regs is the register demand per thread before hardware capping.
	regs float64
	// spillBytes is the per-thread spill volume once regs exceeds the
	// hardware per-thread ceiling.
	spillBytes float64
	// smemBytes is the shared-memory demand per thread block.
	smemBytes float64
	// threadsPerBlock is BlockX*BlockY.
	threadsPerBlock int
}

// Register-model constants. They encode the qualitative register-pressure
// claims of Sec. II-B: merging and temporal blocking multiply per-thread
// state, prefetching adds lookahead buffers, retiming homogenizes accesses
// and relieves pressure for high-order stencils.
const (
	baseRegs         = 18.0 // addressing, loop counters, accumulator
	regsPerPoint     = 0.85 // live coefficient/operand values per stencil point
	livePointCap     = 48.0 // compilers keep at most a window of operands live
	retimingRelief   = 0.55 // RT multiplier on per-point register cost
	mergeRegCostBM   = 0.80 // extra accumulators per merged point (block)
	mergeRegCostCM   = 0.70 // cyclic merging shares index math
	prefetchRegsBase = 5.0  // double-buffer pointers per lookahead step
	tbRegGrowth      = 0.60 // per fused time step of live state
	streamColumnCost = 2.0  // register column along the streaming dim
	unrollRegCost    = 0.30 // fraction of per-point state duplicated per unroll
)

// resourceUsage models register and shared-memory demand. r is the
// stencil's order, a cell invariant the caller holds (geom.order).
func resourceUsage(w *Workload, oc opt.Opt, p *opt.Params, arch *gpu.Arch, r float64) resources {
	s := w.S
	n := math.Min(float64(s.NumPoints()), livePointCap)

	// Per-point register state: operands kept live while accumulating,
	// saturating at the compiler's live-value window.
	perPoint := regsPerPoint * n
	if oc.Has(opt.RT) {
		perPoint *= retimingRelief
	}

	regs := baseRegs + perPoint

	if oc.Has(opt.ST) {
		// Streaming holds a register column of 2r+1 planes' worth of
		// reused operands along the streaming dimension.
		regs += streamColumnCost * (2*r + 1)
		if p.Unroll > 1 {
			regs += perPoint * unrollRegCost * float64(p.Unroll-1)
		}
	}

	if merge := float64(p.Merge); merge > 1 {
		cost := mergeRegCostBM
		if oc.Has(opt.CM) {
			cost = mergeRegCostCM
		}
		regs += (baseRegs*0.3 + perPoint*cost) * (merge - 1)
	}

	if oc.Has(opt.PR) {
		d := float64(p.PrefetchDepth)
		regs += prefetchRegsBase*d + (2*r+1)*0.5*d
	}

	if oc.Has(opt.TB) {
		// Each fused time step keeps live state for its intermediate
		// results; without streaming the full dependency window lives in
		// registers/smem and the growth is much steeper.
		growth := tbRegGrowth
		if !oc.Has(opt.ST) {
			growth = 1.15
		}
		regs *= 1 + growth*float64(p.TBDepth-1)
	}

	res := resources{
		regs:            regs,
		threadsPerBlock: p.BlockX * p.BlockY,
		smemBytes:       smemDemand(w, oc, p, r),
	}
	limit := float64(arch.MaxRegsPerThread)
	if regs > limit {
		res.spillBytes = (regs - limit) * 4 // 4 bytes per spilled register
	}
	return res
}

// smemDemand models the per-block shared memory footprint in bytes.
func smemDemand(w *Workload, oc opt.Opt, p *opt.Params, r float64) float64 {
	s := w.S
	const elem = 8.0 // double precision

	switch {
	case oc.Has(opt.ST) && p.UseSmem:
		// 2.5-D blocking stages one (or, with TB, tbDepth+1) plane tiles
		// with halos in shared memory.
		tileX := float64(p.BlockX) + 2*r
		tileY := float64(p.BlockY)*float64(max(p.Merge, 1)) + 2*r
		planes := 1.0
		if oc.Has(opt.TB) {
			planes = float64(p.TBDepth) + 1
		}
		return tileX * tileY * planes * elem
	case oc.Has(opt.TB):
		// Temporal blocking without streaming stages the full space-time
		// dependency window for the fused steps, double-buffered between
		// time levels. For 3-D order-4 stencils the window exceeds the
		// per-SM shared memory of every pre-Ampere part, reproducing the
		// paper's crash observation (Sec. III-A).
		halo := 2 * r * float64(p.TBDepth)
		tileX := float64(p.BlockX) + halo
		tileY := float64(p.BlockY) + halo
		depth := 1.0
		if s.Dims == 3 {
			depth = 2*r*float64(p.TBDepth) + 1
		}
		return tileX * tileY * depth * elem * 2
	default:
		return 0
	}
}

// limitError is a sample rejected by a hard resource limit. Random search
// rejects samples by the thousand and reads almost none of the messages,
// so the error carries the numbers and formats them only in Error.
type limitError struct {
	kind    error // ErrInvalidConfig (shared memory) or ErrCrash (registers)
	oc      opt.Opt
	demand  float64 // KiB of shared memory per block, or registers per thread
	arch    string
	smemKB  int    // the architecture's limit, for the shared-memory message
	stencil string // for the crash message
}

func (e *limitError) Error() string {
	if e.kind == ErrInvalidConfig {
		return fmt.Sprintf("%v: %s needs %.1f KiB shared memory, %s has %d KiB per SM",
			e.kind, e.oc, e.demand, e.arch, e.smemKB)
	}
	return fmt.Sprintf("%v: %s demands %.0f registers/thread on %s (stencil %s)",
		e.kind, e.oc, e.demand, e.arch, e.stencil)
}

// Unwrap exposes ErrInvalidConfig or ErrCrash to errors.Is.
func (e *limitError) Unwrap() error { return e.kind }

// check enforces hard resource limits: shared-memory overflow invalidates
// the setting, and register demand far beyond the spill ceiling crashes
// the kernel (the paper's "OC crashes under certain stencils" cases).
func (res resources) check(arch *gpu.Arch, w *Workload, oc opt.Opt) error {
	if res.smemBytes > float64(arch.SmemPerSMKB)*1024 {
		return &limitError{kind: ErrInvalidConfig, oc: oc, demand: res.smemBytes / 1024,
			arch: arch.Name, smemKB: arch.SmemPerSMKB}
	}
	if res.regs > 1.6*float64(arch.MaxRegsPerThread) {
		return &limitError{kind: ErrCrash, oc: oc, demand: res.regs,
			arch: arch.Name, stencil: w.S.Name}
	}
	return nil
}

// occupancy returns the achieved thread occupancy per SM in (0, 1],
// jointly limited by the thread, register and shared-memory budgets.
func occupancy(res resources, p *opt.Params, arch *gpu.Arch) float64 {
	tpb := res.threadsPerBlock
	byThreads := arch.MaxThreadsPerSM / tpb

	regsPerThread := math.Min(res.regs, float64(arch.MaxRegsPerThread))
	byRegs := int(float64(arch.RegsPerSM) / (regsPerThread * float64(tpb)))

	bySmem := byThreads
	if res.smemBytes > 0 {
		bySmem = int(float64(arch.SmemPerSMKB) * 1024 / res.smemBytes)
	}

	blocks := min(byThreads, byRegs, bySmem)
	if blocks < 1 {
		blocks = 1
	}
	occ := float64(blocks*tpb) / float64(arch.MaxThreadsPerSM)
	return math.Min(occ, 1)
}
