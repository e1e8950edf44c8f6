package sim

import (
	"math"

	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
	"stencilmart/internal/stencil"
)

// breakdown holds the noiseless model time terms in seconds, already
// multiplied by the workload's time-step count.
type breakdown struct {
	compute, memory, sync, launch float64
}

// Traffic- and latency-model constants.
const (
	elemBytes = 8.0 // double precision

	// alphaBase2D/3D are the baseline cache-miss fractions per distinct
	// grid line touched by a naive kernel; 3-D stencils touch more planes
	// than the caches hold.
	alphaBase2D = 0.20
	alphaBase3D = 0.30
	// alphaOrderGrowth increases the miss fraction per stencil order: a
	// wider footprint evicts more of its own reuse window.
	alphaOrderGrowth = 0.12

	// mergeShareBM/CM are the per-merged-point fractions of line reuse
	// block and cyclic merging recover.
	mergeShareBM = 0.45
	mergeShareCM = 0.25
	// bmCoalescePenalty is the extra memory cost per merged point when
	// block merging runs along the innermost (x) dimension and disrupts
	// coalescing (Sec. II-B2).
	bmCoalescePenalty = 0.25
	// streamXPenalty throttles effective bandwidth when streaming along
	// the innermost dimension, which serializes coalesced rows.
	streamXPenalty = 0.55

	// noStreamTBTrafficMult penalizes temporal blocking without
	// streaming: the space-time halos are re-read from global memory.
	noStreamTBTrafficMult = 1.8

	barrierLatency  = 80e-9 // seconds per __syncthreads at 1.5 GHz
	launchLatency   = 4e-6  // seconds per kernel launch at 1.5 GHz
	prSyncResidual  = 0.35  // fraction of sync latency left under PR
	prMemBonus      = 0.04  // memory-latency hiding per prefetch depth
	rtFlopsOverhead = 1.05  // extra accumulation work under retiming
	archCompEff     = 0.75  // fraction of peak FLOPS sustained
)

// archCompBoost scales effective double-precision throughput per
// architecture. The 2080 Ti's Table III fp64 peak (0.41 TFLOPS) would
// leave every 3-D stencil hopelessly compute-bound, yet the paper reports
// it winning ~20% of 3-D instances (Fig. 14); its stencil kernels
// evidently sustain far more than the fp64-peak model predicts, so Turing
// gets an effective-throughput boost (see DESIGN.md substitutions).
func archCompBoost(arch *gpu.Arch) float64 {
	if arch.Name == "2080Ti" {
		return 4.5
	}
	return 1.0
}

// archMemEff returns the calibrated fraction of peak bandwidth each
// architecture sustains on 2-D and 3-D stencil sweeps. These stand in for
// unmodeled DRAM/cache behavior and are the knobs that reproduce the
// paper's observation that stencil performance is not proportional to
// paper specs (Sec. III-D). A switch, not a map literal: this sits on the
// per-run hot path and must not allocate.
func archMemEff(arch *gpu.Arch, dims int) float64 {
	switch arch.Name {
	case "P100":
		if dims == 2 {
			return 0.84
		}
		return 0.76
	case "V100":
		if dims == 2 {
			return 0.90
		}
		return 0.82
	case "2080Ti":
		if dims == 2 {
			return 0.85
		}
		return 1.02
	case "A100":
		return 0.50
	}
	return 0.8
}

// smallLineThreshold is the footprint (distinct grid lines) below which a
// stencil's reuse window sits comfortably in the L2 working set; Turing's
// high-clock GDDR6 subsystem disproportionately benefits there, which is
// how the model reproduces Fig. 4's "cross2d1r runs faster on the 2080 Ti
// than on V100" observation. The threshold is wider in 3-D because a
// 512-point row is 16x smaller than an 8192-point one, so more lines fit
// in cache.
func smallLineThreshold(dims int) int {
	if dims == 3 {
		return 13
	}
	return 5
}

// archCacheBoost is the small-footprint bandwidth boost per architecture.
func archCacheBoost(arch *gpu.Arch) float64 {
	if arch.Name == "2080Ti" {
		return 1.30
	}
	return 1.0
}

// geom is the cell's footprint geometry, precomputed once per cell by
// the compiled evaluator (and per call by the tests' Reference oracle)
// so the pricing body never rescans the point set per sample. plane is indexed
// by the 1-based streaming dimension; index 0 is unused. order is the
// stencil's order as the float the arithmetic uses; alpha is the cell's
// cache-miss fraction per grid line.
type geom struct {
	line  int
	plane [4]int
	order float64
	alpha float64
}

func cellGeom(s stencil.Stencil, arch *gpu.Arch) geom {
	g := geom{line: stencil.LineCount(s), order: float64(s.Order())}
	for d := 1; d <= 3; d++ {
		g.plane[d] = stencil.PlaneLineCount(s, d)
	}
	g.alpha = alphaBase2D
	if s.Dims == 3 {
		g.alpha = alphaBase3D
	}
	g.alpha *= 1 + alphaOrderGrowth*(g.order-1)
	// Bigger L2 caches retain more of the reuse window.
	g.alpha *= clamp(math.Pow(6.0/arch.L2MB, 0.25), 0.6, 1.3)
	g.alpha = clamp(g.alpha, 0.05, 0.9)
	return g
}

// timeBreakdown computes the noiseless execution-time terms. The caller
// supplies the cell geometry so compiled evaluators can amortize it
// across samples; both paths share this one arithmetic body, which is
// what makes the compiled results bitwise-identical by construction.
func timeBreakdown(w *Workload, oc opt.Opt, p *opt.Params, arch *gpu.Arch, res resources, occ float64, g *geom) breakdown {
	s := w.S
	points := w.Points()
	r := g.order
	n := float64(s.NumPoints())
	tb := 1.0
	if oc.Has(opt.TB) {
		tb = float64(p.TBDepth)
	}
	mergeSpanY := float64(p.BlockY * max(p.Merge, 1))

	// --- Memory traffic per sweep (bytes). ---
	var readFactor float64
	switch {
	case oc.Has(opt.ST) && p.UseSmem:
		// Shared-memory 2.5-D blocking: each element is loaded once plus
		// the halo reloads at tile borders.
		readFactor = 1 + 2*r/float64(p.BlockX) + 2*r/mergeSpanY
	case oc.Has(opt.ST):
		// Register streaming without smem: the thread's own column is
		// reused; neighbor lines are re-fetched each plane at half the
		// naive miss cost (L1 catches the rest).
		pl := float64(g.plane[p.StreamDim])
		readFactor = 1 + 0.5*g.alpha*(pl-1)
	default:
		l := float64(g.line)
		if m := float64(p.Merge); m > 1 {
			share := mergeShareBM
			if oc.Has(opt.CM) {
				share = mergeShareCM
			}
			l = 1 + (l-1)/(1+share*(m-1))
		}
		readFactor = 1 + g.alpha*(l-1)
	}

	writeFactor := 1.0
	haloRedund := 1.0
	if oc.Has(opt.TB) {
		// Fusing tb steps removes tb-1 global round trips but re-reads
		// the expanded space-time halo. With streaming, the halo along
		// the streamed dimension amortizes over the stream tile (2.5-D
		// temporal blocking a la AN5D); without it, only the thread
		// block's own extent amortizes the halo.
		spanY := mergeSpanY
		if oc.Has(opt.ST) && float64(p.StreamTile) > spanY {
			spanY = float64(p.StreamTile)
		}
		haloRedund = (1 + 2*r*tb/float64(p.BlockX)) * (1 + 2*r*tb/spanY)
		if !oc.Has(opt.ST) {
			haloRedund *= noStreamTBTrafficMult
		}
		haloRedund = clamp(haloRedund, 1, 6)
		readFactor = (readFactor / tb) * haloRedund
		writeFactor = 1 / tb
	}

	spillFactor := 0.0
	if res.spillBytes > 0 {
		// Spilled registers are written and re-read per output point, but
		// spill slots are hot in L1/L2 — only a fraction reaches DRAM,
		// and the backend throttles unrolling before spills grow huge.
		spillFactor = clamp(0.25*res.spillBytes/elemBytes, 0, 8)
	}

	bytesPerSweep := points * elemBytes * (readFactor + writeFactor + spillFactor)

	// --- Effective bandwidth. ---
	memEff := archMemEff(arch, s.Dims) * (0.5 + 0.5*occ)
	if g.line <= smallLineThreshold(s.Dims) {
		memEff *= archCacheBoost(arch)
	}
	if oc.Has(opt.BM) && p.MergeDim == 1 {
		memEff /= 1 + bmCoalescePenalty*float64(p.Merge-1)
	}
	if oc.Has(opt.ST) && p.StreamDim == 1 {
		memEff *= streamXPenalty
	}
	if oc.Has(opt.PR) {
		memEff *= 1 + prMemBonus*float64(p.PrefetchDepth)
	}
	memEff *= parallelUtilization(w, oc, p, arch)

	memPerSweep := bytesPerSweep / (arch.MemBWGBs * 1e9 * memEff)

	// --- Compute. ---
	flopsPerPoint := 2*n - 1
	if oc.Has(opt.RT) {
		flopsPerPoint *= rtFlopsOverhead
	}
	computeRedund := 1.0
	if oc.Has(opt.TB) {
		computeRedund = haloRedund // halo points are recomputed
	}
	compEff := archCompEff * archCompBoost(arch) * (0.55 + 0.45*occ)
	compPerSweep := points * flopsPerPoint * computeRedund / (arch.TFLOPS * 1e12 * compEff)

	// --- Synchronization. ---
	clockScale := 1.5 / arch.ClockGHz
	var syncPerSweep float64
	if oc.Has(opt.ST) {
		barriers := float64(p.StreamTile) / float64(max(p.Unroll, 1))
		if oc.Has(opt.TB) {
			barriers *= 2 // producer/consumer barriers per fused step
		}
		waves := kernelWaves(w, oc, p, arch, occ)
		lat := barrierLatency * clockScale
		if oc.Has(opt.PR) {
			lat *= prSyncResidual
		}
		syncPerSweep = barriers * waves * lat
	}

	// --- Launch. ---
	launchesPerSweep := 1.0 / tb
	launchPerSweep := launchesPerSweep * launchLatency * clockScale

	steps := float64(w.TimeSteps)
	return breakdown{
		compute: compPerSweep * steps,
		memory:  memPerSweep * steps,
		sync:    syncPerSweep * steps,
		launch:  launchPerSweep * steps,
	}
}

// totalThreads returns the number of threads the kernel launches: one per
// output point, divided by the per-thread coverage from merging, unrolling
// and streaming.
func totalThreads(w *Workload, oc opt.Opt, p *opt.Params) float64 {
	cover := float64(max(p.Merge, 1)) * float64(max(p.Unroll, 1))
	if oc.Has(opt.ST) {
		cover *= float64(p.StreamTile)
	}
	return math.Max(1, w.Points()/cover)
}

// parallelUtilization throttles bandwidth when the launch does not carry
// enough threads to fill the device (streaming's computation-granularity
// cost, Sec. II-B1). The square root models latency hiding partially
// compensating for low thread counts, and the floor reflects that even a
// sparse launch keeps a good fraction of DRAM channels busy.
func parallelUtilization(w *Workload, oc opt.Opt, p *opt.Params, arch *gpu.Arch) float64 {
	threads := totalThreads(w, oc, p)
	needed := float64(arch.SMs*arch.MaxThreadsPerSM) * 1.5
	return clamp(math.Sqrt(threads/needed), 0.4, 1)
}

// kernelWaves returns how many waves of thread blocks a sweep issues.
func kernelWaves(w *Workload, oc opt.Opt, p *opt.Params, arch *gpu.Arch, occ float64) float64 {
	tpb := float64(p.BlockX * p.BlockY)
	blocks := totalThreads(w, oc, p) / tpb
	concurrent := float64(arch.SMs) * float64(arch.MaxThreadsPerSM) * occ / tpb
	if concurrent < 1 {
		concurrent = 1
	}
	return math.Max(1, blocks/concurrent)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
