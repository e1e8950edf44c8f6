package sim

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"stencilmart/internal/gpu"
	"stencilmart/internal/opt"
)

// CellEvaluator is the compiled evaluation path for one
// (workload, stencil, architecture) cell. Construction precomputes
// everything invariant across the thousands of (OC, params) samples a
// cell evaluates — workload validation, the stencil's footprint geometry
// and order, the per-OC noise projections against the reference corpus,
// the per-OC FNV prefix of the measurement-noise key — so the per-sample
// hot loop does only the resource/time arithmetic plus precomputed-table
// noise lookups. Pricing a sample that runs and answering one from the
// memo perform zero allocations; a sample a hard limit rejects allocates
// its error value and nothing else (both enforced by AllocsPerRun gates
// in check.sh).
//
// Evaluators are obtained from Model.Evaluator (or implicitly through
// Model.CellFn) and are safe for concurrent use; results are
// bitwise-identical to the Reference oracle the package's tests keep
// (reference_test.go), a property the differential suite asserts per
// run, per collected dataset, per tuned search and per served answer,
// whether or not the cell is memoizing.
type CellEvaluator struct {
	m *Model
	// table is the evaluator table the cell is registered in: memoized
	// samples count against that table, so a cell still held after a
	// reset no longer shows in CacheStats.
	table *evalTable
	// memo is nil until Model.Evaluator finds the cell in its table
	// again; see cache.go for why.
	memo atomic.Pointer[sampleMemo]

	w    Workload
	arch gpu.Arch
	dims int
	g    geom

	// Noise precomputation. Of the noise factor's four terms only the
	// measurement gauss varies with the sampled params; the other three
	// are per-(cell, OC) constants, stored (not pre-summed) and added back
	// in factor's left-to-right order so the float result is
	// bit-identical. measPrefix is the running FNV-1a state after
	// (patternKey, 0, oc, 0) — the per-sample hash resumes from it.
	meas       float64
	archTerm   float64
	ocTerm     [64]float64
	ocArchTerm [64]float64
	measPrefix [64]uint64
}

// EvalFn evaluates one (OC, params) sample of a fixed cell. It is the
// shape hot consumers (profiler, tuners, baselines, prediction-time
// searches) hold in their inner loops.
type EvalFn func(oc opt.Opt, p opt.Params) (Result, error)

// maxEvaluators bounds the per-model compiled-evaluator table; real
// collections hold stencils x architectures evaluators, far below it.
// On overflow the table resets wholesale — recompilation is microseconds
// and every cell's memo goes with its evaluator.
const maxEvaluators = 4096

// evalTable is one generation of a model's compiled cells, with the
// count of samples their memos hold.
type evalTable struct {
	cells   map[string]*CellEvaluator
	samples atomic.Int64
}

func newEvalTable() *evalTable {
	return &evalTable{cells: make(map[string]*CellEvaluator)}
}

// reset replaces the table; whatever its cells had memoized is evicted.
// The caller holds evalMu.
func (m *Model) reset() {
	m.evictions.Add(uint64(m.table.samples.Load()))
	m.table = newEvalTable()
}

// revisit returns the registered evaluator of the cell with its memo
// switched on, or nil when the table does not hold the cell. The caller
// holds evalMu.
func (m *Model) revisit(key string) *CellEvaluator {
	ev := m.table.cells[key]
	if ev != nil && ev.memo.Load() == nil {
		ev.memo.Store(&sampleMemo{m: make(map[uint64]cacheEntry)})
	}
	return ev
}

// Evaluator returns the compiled evaluator for the cell, compiling and
// registering it on first use; a cell found registered starts memoizing
// its samples. The workload is validated here, once per cell — never
// again per sample.
func (m *Model) Evaluator(w Workload, arch gpu.Arch) (*CellEvaluator, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	key := compileKey(w, arch)
	m.evalMu.Lock()
	if m.table.samples.Load() >= maxMemoSamples {
		m.reset()
	}
	ev := m.revisit(key)
	m.evalMu.Unlock()
	if ev != nil {
		return ev, nil
	}

	ev = m.compile(w, arch)

	m.evalMu.Lock()
	defer m.evalMu.Unlock()
	if cur := m.revisit(key); cur != nil {
		// A concurrent compile of the same cell won; every evaluator of a
		// cell computes identical bits, so either is correct — keep the
		// registered one, which two callers have now asked for.
		return cur, nil
	}
	if len(m.table.cells) >= maxEvaluators {
		m.reset()
	}
	ev.table = m.table
	m.table.cells[key] = ev
	return ev, nil
}

// CellFn resolves the cell to its compiled evaluator's Eval: the one
// pricing path product code has. A workload that fails validation
// yields a function returning that error on every call, as the tests'
// Reference oracle does.
func (m *Model) CellFn(w Workload, arch gpu.Arch) EvalFn {
	ev, err := m.Evaluator(w, arch)
	if err != nil {
		return func(opt.Opt, opt.Params) (Result, error) { return Result{}, err }
	}
	return ev.Eval
}

// compileKey canonicalizes the cell identity: access pattern, grid
// extents, time steps, and the full architecture spec digest. Stencil
// names are deliberately absent — renamed but identical cells share one
// evaluator, and with it one memo.
func compileKey(w Workload, arch gpu.Arch) string {
	ak := archKey(arch)
	b := appendCell(make([]byte, 0, 1+3*len(w.S.Points)+4*4+len(ak)), w)
	return string(append(b, ak...))
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

// compile precomputes the cell's invariants. It runs once per cell per
// model and embeds the stencil once; the directions and per-arch gauss
// terms it projects onto are built once per process. Every constant is
// the expression the reference path evaluates per run (projection,
// gauss) with the same operations in the same order, so the stored values
// carry the same bits.
func (m *Model) compile(w Workload, arch gpu.Arch) *CellEvaluator {
	s := w.S
	n := m.noise
	f := phi(s)
	an := archNoiseOf(arch.Name)
	e := &CellEvaluator{
		m:        m,
		w:        w,
		arch:     arch,
		dims:     s.Dims,
		g:        cellGeom(s, &arch),
		meas:     n.Measurement,
		archTerm: n.StencilArch * an.arch.project(&f),
	}
	pk := patternKey(s)
	base := fnv1aByte(fnv1aString(uint64(fnvOffset64), pk), 0)
	for _, oc := range opt.Combinations() {
		ocb := byte(oc)
		e.measPrefix[oc] = fnv1aByte(fnv1aByte(base, ocb), 0)
		e.ocTerm[oc] = n.StencilOC * an.oc[oc].project(&f)
		e.ocArchTerm[oc] = n.OCArch * an.ocArch[oc]
	}
	return e
}

// Eval prices one (OC, params) sample of the compiled cell, from the
// cell's memo once it has one. It returns ErrCrash or ErrInvalidConfig
// (wrapped) when the kernel cannot run, with the same validation order
// and error text as the reference path.
func (e *CellEvaluator) Eval(oc opt.Opt, p opt.Params) (Result, error) {
	if err := oc.ValidationError(); err != nil {
		return Result{}, err
	}
	if err := p.Validate(oc, e.dims); err != nil {
		return Result{}, err
	}
	memo := e.memo.Load()
	if memo == nil {
		return e.price(oc, &p)
	}
	sample, packable := packSample(oc, p)
	if !packable {
		// Outside the canonical packing (degenerate-but-valid values such
		// as a negative Merge without BM/CM): compute directly.
		return e.price(oc, &p)
	}
	memo.mu.Lock()
	ent, hit := memo.m[sample]
	memo.mu.Unlock()
	if hit {
		e.m.hits.Add(1)
		return ent.res, ent.err
	}
	e.m.misses.Add(1)
	// Crashes are deterministic per cell and re-sampled by every repeat
	// of a search, so the error is memoized like a result.
	ent.res, ent.err = e.price(oc, &p)
	memo.mu.Lock()
	if _, raced := memo.m[sample]; !raced {
		memo.m[sample] = ent
		e.table.samples.Add(1)
	}
	memo.mu.Unlock()
	return ent.res, ent.err
}

// price is the pricing body: the noiseless terms, then the cell's noise.
func (e *CellEvaluator) price(oc opt.Opt, p *opt.Params) (Result, error) {
	r, err := priceNoiseless(&e.w, oc, p, &e.arch, &e.g)
	if err != nil {
		return Result{}, err
	}
	r.Time *= e.noiseFactor(oc, p)
	return r, nil
}

// priceNoiseless is the arithmetic the compiled and reference paths
// share: resources, hard limits, occupancy and time terms, with Time the
// noiseless sum the caller scales by its noise factor.
func priceNoiseless(w *Workload, oc opt.Opt, p *opt.Params, arch *gpu.Arch, g *geom) (Result, error) {
	res := resourceUsage(w, oc, p, arch, g.order)
	if err := res.check(arch, w, oc); err != nil {
		return Result{}, err
	}
	occ := occupancy(res, p, arch)
	t := timeBreakdown(w, oc, p, arch, res, occ, g)
	return Result{
		Time:           t.compute + t.memory + t.sync + t.launch,
		Compute:        t.compute,
		Memory:         t.memory,
		Sync:           t.sync,
		Launch:         t.launch,
		Occupancy:      occ,
		RegsPerThread:  res.regs,
		SmemPerBlockKB: res.smemBytes / 1024,
		SpillBytes:     res.spillBytes,
	}, nil
}

// noiseFactor is the oracle's per-run noise factor (noiseConfig.factor
// in reference_test.go) with every cell-invariant piece
// precomputed: the measurement gauss resumes from the per-OC FNV prefix
// and hashes only the 10 params bytes and the arch name inline; the three
// affinity terms come from the compile-time tables. The additions run in
// the reference order, so the factor is bit-identical.
func (e *CellEvaluator) noiseFactor(oc opt.Opt, p *opt.Params) float64 {
	h := e.measPrefix[oc]
	for _, b := range paramsBytes(*p) { // the params' key bytes, on the stack
		h = fnv1aByte(h, b)
	}
	h = fnv1aByte(h, 0)
	h = fnv1aString(h, e.arch.Name)
	h = fnv1aByte(h, 0)

	sum := e.meas*boxMullerFrom(h) + e.archTerm + e.ocTerm[oc] + e.ocArchTerm[oc]
	return math.Exp(sum)
}
